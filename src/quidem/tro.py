"""Ternary rings of operators attached to contractive idempotents: the image
of the left convolution operator, its linking algebra of 2×2 matrices over
the algebra (kept as four corners in the algebra), the entrywise conditional
expectation built from the absolute values, recovery of the idempotent from
an invariant TRO, and Analysis, which runs the whole chain once for one
functional."""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .algebra import (CHECK_TOL, STATE_TOL, AlgebraElement, Functional, MultiMatrixAlgebra, PolarParts,
                      _as_complex, above_cutoff, polar_decompose)
from .convolution import ConvolutionOperator, commutes_with_right_convolutions, idempotency_defects
from .idempotents import ContractiveIdempotentReport, _require_contractive, decompose, is_contractive_idempotent
from .qgroup import FiniteQuantumGroup


@dataclass(eq=False)
class OperatorSubspace:
    """Subspace of a multi-matrix algebra with a basis orthonormal for the
    trace inner product ⟨a, b⟩ = Tr(a*b), kept as a read-only copy."""

    algebra: MultiMatrixAlgebra
    matrix: np.ndarray            # (dim, k), orthonormal columns, read-only

    def __post_init__(self):
        self.matrix = _as_complex(self.matrix)

    @classmethod
    def from_spanning(cls, algebra: MultiMatrixAlgebra, vectors) -> "OperatorSubspace":
        """Orthonormal basis of the span of vecs given as a sequence or as the
        rows of a stack, keeping singular values above RANK_CUTOFF times the
        largest."""
        stack = np.asarray(vectors, dtype=np.complex128).reshape(-1, algebra.dim).T
        u, s, _ = np.linalg.svd(stack, full_matrices=False)
        return cls(algebra, u[:, :int(above_cutoff(s, s.max(initial=0.0)).sum())])

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def basis(self) -> list[AlgebraElement]:
        return [self.algebra.from_vec(self.matrix[:, j]) for j in range(self.dim)]

    def projector(self) -> np.ndarray:
        return self.matrix @ self.matrix.conj().T

    def equals(self, other: "OperatorSubspace", tol: float = CHECK_TOL) -> bool:
        return float(np.linalg.norm(self.projector() - other.projector(), 2)) <= tol

    @cached_property
    def tro_defect(self) -> float:
        """Largest residual against X of a triple product x y* z over all
        basis triples, stacked over (x, y, z) in chunks of x."""
        A, basis = self.algebra, self.matrix.T
        stars = A.adjoint(basis)
        return max((_worst_residual(self, A.multiply(A.multiply(basis[s, None], stars)[:, :, None], basis))
                    for s in _chunks(self.dim, self.dim ** 2, A.dim)), default=0.0)

    @cached_property
    def product_spans(self) -> tuple["OperatorSubspace", "OperatorSubspace"]:
        """Orthonormal bases of ⟨XX*⟩ and ⟨X*X⟩."""
        A, basis = self.algebra, self.matrix.T
        stars = A.adjoint(basis)
        return (OperatorSubspace.from_spanning(A, A.multiply(basis[:, None, :], stars[None, :, :])),
                OperatorSubspace.from_spanning(A, A.multiply(stars[:, None, :], basis[None, :, :])))

    @cached_property
    def invariance(self) -> weakref.WeakKeyDictionary:
        """Right-invariance defects measured so far, by group; filled by right_invariance."""
        return weakref.WeakKeyDictionary()

    def right_invariance(self, G: FiniteQuantumGroup) -> float:
        """invariance_defect(G, X), measured once per group and kept in X.invariance."""
        defect = self.invariance.get(G)
        if defect is None:
            defect = self.invariance[G] = invariance_defect(G, self)
        return defect

    @cached_property
    def rank_deficit(self) -> int:
        """dim A minus the smaller of dim span(X·A) = dim qA and dim span(A·X) =
        dim Aq′, q and q′ the supports of Σ xx* and Σ x*x over the basis, so
        each is Σ_b n_b·rank(q_b), cut by the rank rule as support cuts."""
        A, basis = self.algebra, self.matrix.T
        stars = A.adjoint(basis)
        svals = A.singular_values(A.multiply([basis, stars], [stars, basis]).sum(axis=1))
        top = np.max([s.max(axis=(-2, -1)) for s in svals], axis=0)[:, None, None]
        ranks = sum(s.shape[-1] * above_cutoff(s, top).sum(axis=(-2, -1)) for s in svals)
        return A.dim - int(ranks.min())


def _worst_residual(X: OperatorSubspace, stack: np.ndarray) -> float:
    """Largest Hilbert-Schmidt distance from a vec of the stack to X."""
    residuals = np.linalg.norm(stack - (stack @ X.matrix.conj()) @ X.matrix.T, axis=-1)
    return float(residuals.max(initial=0.0))


def _chunks(count: int, per: int, dim: int) -> list[slice]:
    """Slices of range(count) for a stack of per vecs at each index: a chunk
    holds at most dim² vecs, as many as a (dim, dim) stack over two basis
    indices, and at least one index."""
    step = max(1, dim * dim // max(per, 1))
    return [slice(start, start + step) for start in range(0, count, step)]


def image_subspace(T: ConvolutionOperator) -> OperatorSubspace:
    """Orthonormal basis of the range of a convolution operator."""
    return OperatorSubspace.from_spanning(T.group.algebra, T.matrix.T)


def is_tro(X: OperatorSubspace, tol: float = CHECK_TOL) -> bool:
    """Closure under the triple product x y* z: X.tro_defect ≤ tol."""
    return X.tro_defect <= tol


def is_nondegenerate(X: OperatorSubspace, tol: float = CHECK_TOL) -> bool:
    """span(X·A) = A and span(A·X) = A: X.rank_deficit ≤ tol."""
    return X.rank_deficit <= tol


def is_right_invariant(G: FiniteQuantumGroup, X: OperatorSubspace, tol: float = CHECK_TOL) -> bool:
    """R_ν(X) ⊆ X for ν over the dual basis, hence for every functional:
    X.right_invariance(G) ≤ tol."""
    return X.right_invariance(G) <= tol


def invariance_defect(G: FiniteQuantumGroup, X: OperatorSubspace) -> float:
    """Largest residual against X of R_ν(x), over the dual basis ν and the basis of X."""
    return _worst_residual(X, np.einsum("ijc,cx->jxi", G.d3, X.matrix))


@dataclass(eq=False)
class LinkingAlgebra:
    """The 2×2 linking C*-algebra [[⟨XX*⟩, X], [X*, ⟨X*X⟩]], kept as its four
    corners in A."""

    tro: OperatorSubspace
    left: OperatorSubspace
    right: OperatorSubspace

    def corners(self) -> dict:
        """The corner bases as rows of vecs of A, keyed by entry: ⟨XX*⟩ at
        (0,0), X at (0,1), X* at (1,0) and ⟨X*X⟩ at (1,1)."""
        x = self.tro.matrix.T
        return {(0, 0): self.left.matrix.T, (0, 1): x,
                (1, 0): self.tro.algebra.adjoint(x), (1, 1): self.right.matrix.T}

    def corner_dims(self) -> tuple[int, int, int]:
        return self.left.dim, self.tro.dim, self.right.dim


def linking_algebra(X: OperatorSubspace, tol: float = CHECK_TOL) -> LinkingAlgebra:
    """Left and right linking algebras ⟨XX*⟩ and ⟨X*X⟩ of a TRO; for a TRO the
    spans of pairwise products are already closed under multiplication."""
    if not is_tro(X, tol):
        raise ValueError("linking_algebra requires a TRO")
    return LinkingAlgebra(X, *X.product_spans)


@dataclass(eq=False)
class SchurExpectation:
    """Entrywise (Schur) map on M₂(A) given by a 2×2 matrix Ω of functionals
    on A, the linking functional: entry (i,j) is mapped by L_{Ω_ij}."""

    group: FiniteQuantumGroup
    linking: list                  # 2×2 nested list of Functionals, Ω_ij

    @cached_property
    def entries(self) -> list:   # 2×2 nested list of the (dim, dim) matrices of L_{Ω_ij}
        return [[self.group.left_matrix(f.covector) for f in row] for row in self.linking]


def build_expectation(G: FiniteQuantumGroup, omega: Functional, tol: float = CHECK_TOL) -> SchurExpectation:
    """The extension of L_ω to a conditional expectation of M₂(A) onto the
    linking algebra of its image: entrywise left convolutions by the linking
    functional Ω = [[|ω|_r, ω], [ω̄, |ω|_l]], behind the guard of Analysis."""
    return Analysis(G, omega, tol).expectation


@dataclass(eq=False)
class ExpectationCheck:
    """Residuals of the conditional-expectation axioms on a linking algebra."""

    idempotent: float
    fixes_subalgebra: float
    bimodule: float
    choi_min_eigenvalue: float


def expectation_checks(E: SchurExpectation, B: LinkingAlgebra) -> ExpectationCheck:
    """E∘E = E, E fixes the linking algebra, the bimodule property over it,
    and complete positivity, the first and last read off the linking
    functional Ω.  As L_φL_ψ = L_{ψ⋆φ} and L is injective (ε∘L_φ = φ),
    E∘E = E iff each Ω_ij⋆Ω_ij = Ω_ij: idempotent is the largest dual norm of
    Ω_ij⋆Ω_ij − Ω_ij, read from idempotency_defects.  E is CP iff Ω ≥ 0 on M₂(A) (_linking_positivity):
    (id⊗ε)∘E, with id⊗ε a *-homomorphism, is the Schur map X ↦ [Ω_ij(x_ij)],
    CP iff Ω ≥ 0, and E is that map, W*(id⊗ρ)(·)W in the GNS form of Ω,
    composed with id⊗Δ.  Each corner basis element lies in one entry, so its
    fixed-point residual is ‖E_ij(b) − b‖.  The bimodule property is checked
    as the left and right module properties, the largest Frobenius norm of
    E L_b − L_b E and of E R_b − R_b E (_commutators): they give it, as
    E(b₁xb₂) = b₁E(xb₂) = b₁E(x)b₂, and follow from it when 1 ∈ B, as for a
    unital E, whose range B holds E(1) = 1."""
    return _expectation_checks(E, B, _commutators(B.tro.algebra, E.entries, B.corners()))


def _expectation_checks(E: SchurExpectation, B: LinkingAlgebra, commutators: dict) -> ExpectationCheck:
    """expectation_checks with the bimodule commutators of E and B given."""
    A, corners = B.tro.algebra, B.corners()
    idem = max(idempotency_defects(E.group, [f for row in E.linking for f in row]))
    fixes = max(float(np.linalg.norm(b @ E.entries[i][j].T - b, axis=-1).max(initial=0.0))
                for (i, j), b in corners.items())
    # the Frobenius norm of a commutator on M₂(A) is the root sum of squares of its two blocks
    bimodule = max(np.hypot(*(np.linalg.norm(c, axis=(-2, -1)) for c in blocks)).max(initial=0.0)
                   for _, _, *sides in commutators.values() for blocks in sides)
    return ExpectationCheck(
        idempotent=idem,
        fixes_subalgebra=fixes,
        bimodule=float(bimodule),
        choi_min_eigenvalue=_linking_positivity(A, np.array([[f.density.vec for f in row] for row in E.linking])),
    )


def _commutators(A: MultiMatrixAlgebra, entries, corners: dict) -> dict:
    """The commutators of the Schur map with entries E_ij with left and right
    multiplication by the basis elements b of a linking algebra: keyed by
    corner (i, j), with p over that corner's basis, the stacks L_p and R_p and
    the blocks C^L_l = E_il L_p − L_p E_jl and C^R_l = E_lj R_p − R_p E_li for
    l = 0, 1, each operator on A transposed: row k is its value at e_k.

    For b = e_ij⊗p, L_b takes entry (j,l) to entry (i,l) by a ↦ pa and R_b
    takes entry (l,i) to entry (l,j) by a ↦ ap, for l = 0, 1, and every other
    entry to 0; so E L_b − L_b E has the blocks C^L_l, E R_b − R_b E the
    blocks C^R_l, and both are 0 elsewhere."""
    units, E = np.eye(A.dim), np.array(entries).swapaxes(-1, -2)   # E[i, j] = E_ijᵀ
    out = {}
    for (i, j), b in corners.items():
        lp, rp = A.multiply(b[:, None], units), A.multiply(units, b[:, None])
        out[i, j] = (lp, rp, tuple(lp @ E[i, l] - E[j, l] @ lp for l in (0, 1)),
                     tuple(rp @ E[l, j] - E[l, i] @ rp for l in (0, 1)))
    return out


@lru_cache(maxsize=None)
def _linking_ambient(A: MultiMatrixAlgebra) -> MultiMatrixAlgebra:
    """M₂(A) as the algebra of blocks M₂(M_n) = M_{2n}, block by block."""
    return MultiMatrixAlgebra(tuple(2 * n for n in A.block_dims))


def _linking_positivity(A: MultiMatrixAlgebra, dens: np.ndarray) -> float:
    """min(0, λ_min) − ‖D − D*‖/2 for the density D on M₂(A) of Ω: X ↦ Σ Ω_ij(x_ij),
    from the densities dens[i, j] of the Ω_ij: D = [[d_00, d_10], [d_01, d_11]]
    per block, as Tr(D X) pairs the (i, j) block of D with the entry x_ji."""
    m2 = _linking_ambient(A)
    vec = np.empty(m2.dim, dtype=np.complex128)
    for (n, _, b), (_, idx, _) in zip(A.blocks_by_size(dens), m2.size_classes):
        vec[idx] = b.transpose(2, 1, 3, 0, 4).reshape(idx.shape)   # [m, i, r, j, s] = d_ji[m, r, s]
    # fold the Hermiticity defect of D into the bound, so that maps that do not
    # preserve Hermiticity fail: K = i(D − D*)/2 has ‖K‖ = max(−λ_min(±K))
    skew = 0.5j * (vec - m2.adjoint(vec))
    low, *skews = m2.min_eigenvalues([vec, skew, -skew])
    return min(0.0, float(low)) + float(min(skews))


def preserves_weight(E: SchurExpectation, tol: float = CHECK_TOL) -> bool:
    """h⁽²⁾∘E = h⁽²⁾ on M₂(A), where h⁽²⁾ sums the Haar values of the diagonal entries."""
    return weight_defect(E) <= tol


def weight_defect(E: SchurExpectation) -> float:
    """max |E_iiᵀh − h| over the diagonal entries; h⁽²⁾ is zero on the off-diagonal ones, which E keeps apart."""
    h = E.group.haar.covector
    return max(float(np.abs(E.entries[i][i].T @ h - h).max()) for i in (0, 1))


@dataclass(eq=False)
class TroExpectationReport:
    """Residuals of the mixed-product identities tying L_ω to the left
    convolutions by its absolute values and of the TRO-expectation axioms,
    with the image, whose TRO property passed reads at its own tol."""

    identity_residuals: dict
    expectation_residuals: dict
    image: OperatorSubspace

    def passed(self, tol: float = CHECK_TOL) -> bool:
        residuals = [*self.identity_residuals.values(), *self.expectation_residuals.values()]
        return is_tro(self.image, tol) and all(v <= tol for v in residuals)


def check_tro_expectation(G: FiniteQuantumGroup, omega: Functional, tol: float = CHECK_TOL) -> TroExpectationReport:
    """Verify the four identities

        P(P(a)b) = P(a)Q_l(b),     Q_l(P(a)*b) = P(a)*P(b),
        P(aP(b)) = Q_r(a)P(b),     Q_r(aP(b)*) = P(a)P(b)*,

    with P = L_ω, Q_r = L_{|ω|_r}, Q_l = L_{|ω|_l}, over the basis elements b
    and an orthonormal basis of the image in place of P(a); then the three
    TRO-expectation axioms on the image, and the TRO property of the image.
    Each identity is linear or conjugate-linear in the factor that runs over
    a basis, so it holds on the whole span iff it holds on that basis; each
    is read off the expectation's bimodule commutators (_tro_residuals),
    behind the guard of Analysis."""
    return Analysis(G, omega, tol).tro_report


def _tro_residuals(A: MultiMatrixAlgebra, commutators: dict) -> tuple[dict, dict]:
    """The residuals of check_tro_expectation, read off the _commutators of a
    Schur map with P = E_01, Q_r = E_00, Q_l = E_11 and E_10 = P♭: a ↦ P(a*)*,
    each the largest operator norm of a block's values at the basis elements.
    With x over X and c over ⟨XX*⟩ or ⟨X*X⟩, all but the middle one are blocks:

        P(P(a)b) = P(a)Q_l(b): C^L (0,1), l=1   Q_l(P(a)*b) = P(a)*P(b): C^L (1,0), l=1
        P(aP(b)) = Q_r(a)P(b): C^R (0,1), l=0   Q_r(aP(b)*) = P(a)P(b)*: C^R (1,0), l=0
        P(c a) = c P(a):       C^L (0,0), l=1   P(a c) = P(a) c:         C^R (1,1), l=0

    The middle one, P(x a* y) = x P(a)* y, is P L_x R_y − L_x R_y P♭ at a*,
    that is C^L_x R_y + L_x C^R_y, both at (0,1), l=1, in chunks of x."""
    norm = A.max_operator_norm
    lx, rx, left, right = commutators[0, 1]
    left_star, right_star = commutators[1, 0][2:]
    left_pair, right_pair = commutators[0, 0][2], commutators[1, 1][3]
    # transposed: (C^L_x R_y + L_x C^R_y)ᵀ = R_yᵀ C^L_xᵀ + C^R_yᵀ L_xᵀ, indexed [x, y]
    middle = max((norm(rx[None] @ left[1][s, None] + right[1][None] @ lx[s, None])
                  for s in _chunks(len(lx), len(lx) * A.dim, A.dim)), default=0.0)
    return ({"left_absorb": norm(left[1]), "left_adjoint_absorb": norm(left_star[1]),
             "right_absorb": norm(right[0]), "right_adjoint_absorb": norm(right_star[0])},
            {"expect_right_pair": norm(right_pair[0]), "expect_middle": middle, "expect_left_pair": norm(left_pair[1])})


@dataclass(eq=False)
class RecoveryResult:
    """Outcome of recover_idempotent; when not ok, reasons lists the failed
    preconditions or verification steps."""

    functional: Functional | None
    ok: bool
    reasons: list[str] = field(default_factory=list)

    def __bool__(self):
        return self.ok


def recover_idempotent(G: FiniteQuantumGroup, X: OperatorSubspace, tol: float = CHECK_TOL) -> RecoveryResult:
    """Recover the contractive idempotent ω with X = L_ω(A) from an invariant
    nondegenerate TRO.

    The candidate for L_ω is the orthogonal projection of A onto X in the
    Haar GNS inner product ⟨a,b⟩ = h(a*b); a contractive idempotent is fixed
    by the sharp involution, which makes its left convolution GNS
    self-adjoint, so the candidate is exact whenever X arises from one.  If
    the projection fails to commute with the right convolutions the subspace
    is reported as not recoverable.

    X caches its TRO, rank and invariance defects, and the invariance
    defects of its product spans ⟨XX*⟩ and ⟨X*X⟩ are read once X is a
    nondegenerate invariant TRO.  X* is not measured: its defect is X's, as
    R_ν(x)* = R_ν̄(x*) with ν̄(a) = conj(ν(a*)), which permutes the dual
    basis, and a ↦ a* is a Hilbert-Schmidt isometry onto X*."""
    reasons = [reason for reason, defect in (("not a TRO", X.tro_defect), ("not nondegenerate", X.rank_deficit),
                                              ("X is not right invariant", X.right_invariance(G)))
               if not defect <= tol]
    if not reasons:
        reasons = [f"{side} linking algebra is not right invariant"
                   for side, c in zip(("left", "right"), X.product_spans) if not c.right_invariance(G) <= tol]
    weights = G.haar_weight_vec
    if not reasons and weights.min() <= 0:
        reasons.append("Haar weights not positive")
    if reasons:
        return RecoveryResult(functional=None, ok=False, reasons=reasons)
    w_half = np.sqrt(weights)
    q, _ = np.linalg.qr(w_half[:, None] * X.matrix)
    proj = (q @ q.conj().T) * (w_half[None, :] / w_half[:, None])
    omega = Functional.from_covector(G.algebra, proj.T @ G.counit.covector)
    if not commutes_with_right_convolutions(G, proj, max(tol, CHECK_TOL)):
        reasons.append("orthogonal projection does not commute with right convolutions")
    elif not is_contractive_idempotent(G, omega, max(tol, STATE_TOL)):
        reasons.append("recovered functional is not a contractive idempotent")
    elif not OperatorSubspace.from_spanning(G.algebra, G.left_matrix(omega.covector).T).equals(X, tol):
        reasons.append("image of the recovered idempotent differs from X")
    return RecoveryResult(functional=None if reasons else omega, ok=not reasons, reasons=reasons)


class Analysis:
    """The paper's chain for one functional ω on G, each stage computed once,
    on first use, from the facts its objects keep: past the contractive
    guard, which raises ValueError unless ω is a contractive idempotent at
    tol floored at STATE_TOL, reading G.idempotency, its polar parts and
    decomposition, the image X = L_ω(A), its linking algebra, the Schur
    expectation of Ω = [[|ω|_r, ω], [ω̄, |ω|_l]], its bimodule commutators
    with the linking algebra, which both its checks and the TRO-expectation
    report read, and the recovery of ω from X, which reads the invariance
    defects X and its product spans keep, each at tol.  The linking algebra
    has no TRO gate (linking_algebra keeps one): the caller judges
    X.tro_defect.  A plain class: a frozen dataclass slows the import."""

    def __init__(self, group: FiniteQuantumGroup, omega: Functional, tol: float):
        self.group, self.omega, self.tol = group, omega, tol

    @cached_property
    def parts(self) -> PolarParts:
        _require_contractive(self.group, self.omega, self.tol)
        return polar_decompose(self.omega)

    @cached_property
    def decomposition(self) -> ContractiveIdempotentReport:
        return decompose(self.group, self.omega, self.tol)

    @cached_property
    def expectation(self) -> SchurExpectation:
        parts, omega = self.parts, self.omega
        return SchurExpectation(self.group, [[parts.abs_r, omega], [omega.conjugate(), parts.abs_l]])

    @cached_property
    def image(self) -> OperatorSubspace:
        return OperatorSubspace.from_spanning(self.group.algebra, self.expectation.entries[0][1].T)

    @cached_property
    def linking(self) -> LinkingAlgebra:
        return LinkingAlgebra(self.image, *self.image.product_spans)

    @cached_property
    def commutators(self) -> dict:
        return _commutators(self.group.algebra, self.expectation.entries, self.linking.corners())

    @cached_property
    def checks(self) -> ExpectationCheck:
        return _expectation_checks(self.expectation, self.linking, self.commutators)

    @cached_property
    def tro_report(self) -> TroExpectationReport:
        """The entries of the expectation: P = L_ω, Q_r = L_{|ω|_r}, Q_l = L_{|ω|_l}, and
        P♭ = L_ω̄, as L_ω̄(a*) = L_ω(a)* for a *-homomorphism Δ."""
        return TroExpectationReport(*_tro_residuals(self.group.algebra, self.commutators), self.image)

    @cached_property
    def recovery(self) -> RecoveryResult:
        return recover_idempotent(self.group, self.image, self.tol)
