"""Finite quantum groups: a multi-matrix algebra together with explicit
comultiplication, counit, antipode and Haar state, all as dense linear data
over the matrix-unit basis.

Includes the axiom checker, duality (via the numerical Wedderburn splitting
of the convolution algebra), quotients by central supports, and group-like
unitaries."""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import wedderburn
from .algebra import (
    CHECK_TOL,
    COND_LIMIT,
    STATE_TOL,
    AlgebraElement,
    Functional,
    MultiMatrixAlgebra,
    above_cutoff,
    is_central,
    tensor_algebra,
)
from .groups import GroupTable

_STAR_TOL = 1e-7           # largest ‖L(f♯) − L(f)†‖ of the dual regular representation
_DUAL_SEED = 11            # seed of the Wedderburn split of the dual convolution algebra


@dataclass(eq=False)
class FiniteQuantumGroup:
    """Quantum group structure data.  comult has shape (dim², dim) and maps
    vec coordinates of A to vec coordinates of A⊗A; antipode is (dim, dim).
    haar defaults to the Plancherel state of the algebra, the Haar state of
    every finite quantum group on it.  Treat instances as immutable."""

    algebra: MultiMatrixAlgebra
    comult: np.ndarray
    counit: Functional
    antipode: np.ndarray
    haar: Functional | None = None
    name: str = ""
    kind: str = "custom"
    table: GroupTable | None = None
    lambda_basis: np.ndarray | None = None  # group algebras: Λ, column g = vec(λ_g), λ_g = ⊕_ρ ρ(g)

    def __post_init__(self):
        dim = self.algebra.dim
        comult = np.asarray(self.comult, dtype=np.complex128)
        antipode = np.asarray(self.antipode, dtype=np.complex128)
        if comult.shape != (dim * dim, dim):
            raise ValueError(f"comultiplication must have shape {(dim * dim, dim)}")
        if antipode.shape != (dim, dim):
            raise ValueError(f"antipode must have shape {(dim, dim)}")
        comult.flags.writeable = False
        antipode.flags.writeable = False
        object.__setattr__(self, "comult", comult)
        object.__setattr__(self, "antipode", antipode)
        if self.haar is None:
            object.__setattr__(self, "haar", plancherel_state(self.algebra))

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @cached_property
    def ts(self):
        return tensor_algebra(self.algebra, self.algebra)

    @cached_property
    def pos_matrix(self) -> np.ndarray:
        return self.ts.positions.reshape(self.dim, self.dim)

    @cached_property
    def d3(self) -> np.ndarray:
        """d3[I, J, c] = coefficient of e_I ⊗ e_J in Δ(e_c)."""
        out = _d3(self.algebra, self.comult)
        out.flags.writeable = False
        return out

    @cached_property
    def axiom_defects(self) -> dict:
        """The 16 defect norms of verify_axioms, in AXIOM_ROWS order; measured once."""
        defects = {**_structure_defects(self), **_haar_defects(self)}
        return {name: defects[name] for name in AXIOM_ROWS}

    @cached_property
    def corners(self) -> dict:
        """Corner quotients built and structure-verified so far, by kept-block
        tuple; filled by quotient_by_support."""
        return {}

    @cached_property
    def idempotency(self) -> weakref.WeakKeyDictionary:
        """Idempotency defects ‖ω⋆ω − ω‖ measured so far, by functional;
        filled by convolution.idempotency_defect."""
        return weakref.WeakKeyDictionary()

    @cached_property
    def sharp_matrix(self) -> np.ndarray:
        """Matrix M with covector(ω♯) = M @ conj(covector(ω))."""
        out = self.antipode[self.algebra.transpose_perm, :].T.copy()
        out.flags.writeable = False
        return out

    def left_matrix(self, cov: np.ndarray) -> np.ndarray:
        """Matrix of a ↦ (ω⊗id)Δ(a) for the functional with the given covector."""
        return np.einsum("i,ijc->jc", cov, self.d3)

    def right_matrix(self, cov: np.ndarray) -> np.ndarray:
        """Matrix of a ↦ (id⊗ω)Δ(a)."""
        return np.einsum("j,ijc->ic", cov, self.d3)

    @cached_property
    def haar_weight_vec(self) -> np.ndarray:
        """Per-coordinate weights of the Haar GNS inner product
        ⟨a, b⟩ = h(a*b) = Σ_k w_k tr(a_k* b_k); the Haar density of a finite
        quantum group is central, so the weights are blockwise constants."""
        weights = np.empty(self.dim)
        for n, idx, b in self.algebra.blocks_by_size(self.haar.density.vec):
            weights[idx] = np.trace(b, axis1=-2, axis2=-1).real[:, None] / n
        weights.flags.writeable = False
        return weights

    def __repr__(self):
        return f"FiniteQuantumGroup({self.name or self.kind}, blocks={self.algebra.block_dims})"


@dataclass(eq=False)
class AxiomReport:
    """Named defect norms from a structure check; passes iff all ≤ tol."""

    defects: dict
    tol: float

    @property
    def passed(self) -> bool:
        return all(v <= self.tol for v in self.defects.values())

    @property
    def max_defect(self) -> float:
        return max(self.defects.values())

    def failures(self) -> dict:
        return {k: v for k, v in self.defects.items() if v > self.tol}

    def __repr__(self):
        status = "pass" if self.passed else f"FAIL {self.failures()}"
        return f"AxiomReport(max={self.max_defect:.3e}, tol={self.tol:g}, {status})"


# Row order of verify_axioms.
AXIOM_ROWS = (
    "comult_unital", "comult_homomorphism", "comult_star", "coassociativity",
    "counit_left", "counit_right",
    "antipode_left", "antipode_right", "antipode_involutive", "antipode_star",
    "haar_positive", "haar_trace_one", "haar_left_invariant", "haar_right_invariant",
    "cancellation_left", "cancellation_right",
)


def verify_axioms(G: FiniteQuantumGroup, tol: float = STATE_TOL) -> AxiomReport:
    """Compute defect norms for every quantum-group axiom.

    Every defect is an operator norm and vanishes for a genuine finite
    quantum group; the cancellation rows take it of T T⁻¹ − id for the Galois
    maps T.  Each norm is the largest over a stack of basis images, taken by
    the blockwise kernel of the algebra the images live in.  The rows are the
    structure rows together with the Haar rows, in the order of AXIOM_ROWS,
    measured once per group (G.axiom_defects) and compared at each call's tol.
    """
    return AxiomReport(dict(G.axiom_defects), tol)


def _structure_defects(G: FiniteQuantumGroup) -> dict:
    """The rows of verify_axioms that do not read the Haar state."""
    A, AA, ts = G.algebra, G.ts.algebra, G.ts
    dim = A.dim
    images = G.comult.T                     # images[i] = vec Δ(e_i)
    star = A.transpose_perm
    ident = np.eye(dim)
    defects: dict[str, float] = {}

    one = A.identity().vec
    defects["comult_unital"] = AA.max_operator_norm(G.comult @ one - ts.scatter(one, one))
    # Δ(e_i e_j) − Δ(e_i)Δ(e_j) over all basis pairs
    lhs = (G.comult @ A.mult_tensor.reshape(dim, dim * dim)).T.reshape(dim, dim, AA.dim)
    defects["comult_homomorphism"] = AA.max_operator_norm(lhs - AA.multiply(images[:, None, :], images[None, :, :]))
    defects["comult_star"] = AA.max_operator_norm(images[star] - AA.adjoint(images))

    # coassociativity, measured in the triple tensor algebra
    d3 = G.d3
    first = np.einsum("ijm,mkc->cijk", d3, d3, optimize=True)    # (Δ⊗id)Δ(e_c)
    second = np.einsum("jkm,imc->cijk", d3, d3, optimize=True)   # (id⊗Δ)Δ(e_c)
    t3 = tensor_algebra(AA, A)
    pos3 = t3.positions.reshape(AA.dim, dim)[G.pos_matrix, :]
    vec3 = np.zeros((dim, t3.algebra.dim), dtype=np.complex128)
    vec3[:, pos3] = first - second
    defects["coassociativity"] = t3.algebra.max_operator_norm(vec3)

    ce = G.counit.covector
    defects["counit_left"] = A.max_operator_norm((np.einsum("i,ijc->jc", ce, d3) - ident).T)
    defects["counit_right"] = A.max_operator_norm((np.einsum("j,ijc->ic", ce, d3) - ident).T)

    # m(S⊗id)Δ(e_c) − ε(e_c)1 and m(id⊗S)Δ(e_c) − ε(e_c)1
    ms = A.mult_tensor
    s_mat = G.antipode
    rhs = np.einsum("c,o->co", ce, one)
    defects["antipode_left"] = A.max_operator_norm(np.einsum("ijc,ki,okj->co", d3, s_mat, ms, optimize=True) - rhs)
    defects["antipode_right"] = A.max_operator_norm(np.einsum("ijc,kj,oik->co", d3, s_mat, ms, optimize=True) - rhs)
    defects["antipode_involutive"] = A.max_operator_norm((s_mat @ s_mat - ident).T)
    # S(a*) = S(a)* checked on the matrix-unit basis
    star_mat = ident[:, star]
    defects["antipode_star"] = A.max_operator_norm((s_mat @ star_mat - star_mat @ np.conj(s_mat)).T)

    # cancellation laws: T₁(x⊗y) = Δ(x)(1⊗y) and T₂(x⊗y) = (x⊗1)Δ(y) are onto if T₁⁻¹(a⊗b) = a₍₁₎⊗S(a₍₂₎)b
    # and T₂⁻¹(a⊗b) = aS(b₍₁₎)⊗b₍₂₎ are right inverses; T T⁻¹ − id is A-linear in the leg that carries 1
    left = np.einsum("cijk,lk,ojl->cio", first, s_mat, ms, optimize=True)     # T₁T₁⁻¹(e_c⊗1)
    right = np.einsum("cijk,li,olj->cko", second, s_mat, ms, optimize=True)   # T₂T₂⁻¹(1⊗e_c), legs flipped
    for name, image, legs in (("cancellation_left", left, G.pos_matrix),
                              ("cancellation_right", right, G.pos_matrix.T)):
        vec = np.zeros((dim, AA.dim), dtype=np.complex128)
        vec[:, legs] = image - ident[:, :, None] * one   # minus e_c⊗1 as [c, i, o] = δ_ci 1_o
        defects[name] = AA.max_operator_norm(vec)
    return defects


def _haar_defects(G: FiniteQuantumGroup) -> dict:
    """The four Haar rows of verify_axioms: the Haar functional is a state,
    invariant on both sides."""
    A, one = G.algebra, G.algebra.identity().vec
    positive, trace_one = G.haar.state_defects
    ch = G.haar.covector
    return {
        "haar_positive": positive,
        "haar_trace_one": trace_one,
        "haar_left_invariant": A.max_operator_norm((G.left_matrix(ch) - np.outer(one, ch)).T),
        "haar_right_invariant": A.max_operator_norm((G.right_matrix(ch) - np.outer(one, ch)).T),
    }


def commutativity_defect(G: FiniteQuantumGroup) -> float:
    """Max operator norm of [e_i, e_j]; zero iff all blocks are 1×1."""
    ms = G.algebra.mult_tensor
    return G.algebra.max_operator_norm((ms - ms.transpose(0, 2, 1)).T)


def cocommutativity_defect(G: FiniteQuantumGroup) -> float:
    """Max operator norm of (flip∘Δ − Δ)(e_c)."""
    return G.ts.algebra.max_operator_norm((G.comult[G.ts.flip] - G.comult).T)


def plancherel_state(algebra: MultiMatrixAlgebra) -> Functional:
    """The Haar state of every finite quantum group on this algebra, read off
    its block sizes: h = Σ_k (n_k/dim A)·Tr_k, the normalized trace of the
    left regular representation (Larson-Radford, J. Algebra 117 (1988);
    Van Daele, Proc. AMS 125 (1997))."""
    sizes = np.array(algebra.block_dims)[algebra.coordinates[0]]
    return Functional.from_covector(algebra, sizes / algebra.dim * algebra.identity().vec)


def _d3(algebra: MultiMatrixAlgebra, comult: np.ndarray) -> np.ndarray:
    """d3[I, J, c] = coefficient of e_I ⊗ e_J in Δ(e_c)."""
    return comult[tensor_algebra(algebra, algebra).positions.reshape(algebra.dim, algebra.dim), :]


def closed_form_antipode(algebra: MultiMatrixAlgebra, comult: np.ndarray, counit: Functional) -> np.ndarray:
    """The antipode, unchecked: S(x) = (h⊗id)((x⊗1)Δ(Λ))/h(Λ), with h the
    Plancherel state and Λ the density of the counit, the integral with
    aΛ = ε(a)Λ = Λa.  Raises ValueError unless h(Λ) is finite and nonzero."""
    h = plancherel_state(algebra).covector
    integral = counit.density.vec
    scale = h @ integral
    if not (scale != 0 and np.isfinite(scale)):
        raise ValueError(f"closed-form antipode needs h(Λ) finite and nonzero for the counit density Λ, "
                         f"got h(Λ) = {scale:.3g}")
    gram = np.einsum("o,oab->ab", h, algebra.mult_tensor)   # h(e_a e_b)
    return (gram @ (_d3(algebra, comult) @ integral)).T / scale


def _dual_regular_split(G: FiniteQuantumGroup):
    """Wedderburn data of the convolution *-algebra (A*, ⋆, ♯) acting on the
    GNS space of its Haar trace f ↦ f(Λ), Λ the density of the counit.
    Returns (lt, split) with lt[b] the matrix of left multiplication by the
    b-th dual basis functional in orthonormal coordinates."""
    d3 = G.d3
    msharp = G.sharp_matrix
    conv_after_sharp = np.einsum("ai,ajc->ijc", msharp, d3)
    gram = np.einsum("ijc,c->ij", conv_after_sharp, G.counit.density.vec)
    gram = (gram + gram.conj().T) / 2
    evals, evecs = np.linalg.eigh(gram)
    if not above_cutoff(evals, max(1.0, evals.max())).all():
        raise ValueError("dual Haar trace is not faithful; cannot split the dual")
    w_half = evecs @ np.diag(np.sqrt(evals)) @ evecs.conj().T
    w_half_inv = evecs @ np.diag(1.0 / np.sqrt(evals)) @ evecs.conj().T
    lt = w_half @ d3.transpose(0, 2, 1) @ w_half_inv
    rt = w_half @ d3.transpose(1, 2, 0) @ w_half_inv
    star_res = _star_residual(msharp, lt)
    if star_res > _STAR_TOL:
        raise ValueError(f"dual regular representation is not a *-rep (residual {star_res:.2e})")
    split = wedderburn.decompose(lt, rt, np.random.default_rng(_DUAL_SEED))
    return lt, split


def _star_residual(msharp: np.ndarray, lt: np.ndarray) -> float:
    """max_b ‖L(e_b♯) − L(e_b)†‖: left multiplication must be a
    *-representation, L(f♯) = L(f)†, checked on the dual basis in one batch."""
    sharp_images = np.einsum("ab,aij->bij", msharp, lt)
    return float(np.linalg.norm(sharp_images - np.conj(np.swapaxes(lt, 1, 2)), 2, axis=(1, 2)).max())


def _fourier(G: FiniteQuantumGroup) -> tuple[MultiMatrixAlgebra, np.ndarray]:
    """The dual algebra of a verified G and the transform phi whose column b
    is the vec, in the dual algebra, of the image of the b-th dual basis
    functional.  G must pass its axioms at STATE_TOL and phi must have
    condition number at most COND_LIMIT."""
    rep = verify_axioms(G, STATE_TOL)
    if not rep.passed:
        raise ValueError(f"dual() requires a verified quantum group; failures: {rep.failures()}")
    lt, split = _dual_regular_split(G)
    phi = split.map_matrix(lt)
    cond = np.linalg.cond(phi)
    if cond > COND_LIMIT:
        raise ValueError(f"dual splitting is ill-conditioned (cond {cond:.2e})")
    return MultiMatrixAlgebra(split.block_dims), phi


def dual_pair(G: FiniteQuantumGroup) -> tuple[FiniteQuantumGroup, np.ndarray]:
    """The dual quantum group plus the transform phi of _fourier."""
    dim = G.dim
    dual_alg, phi = _fourier(G)
    tsd = tensor_algebra(dual_alg, dual_alg)
    big = np.einsum("bjk,pj,qk->bpq", G.algebra.mult_tensor, phi, phi, optimize=True)
    comult_cols = np.empty((tsd.algebra.dim, dim), dtype=np.complex128)
    comult_cols[tsd.positions] = big.reshape(dim, -1).T
    phi_inv = np.linalg.inv(phi)
    dual_group = FiniteQuantumGroup(
        algebra=dual_alg,
        comult=comult_cols @ phi_inv,
        counit=Functional.from_covector(dual_alg, np.linalg.solve(phi.T, G.algebra.identity().vec)),
        antipode=phi @ G.antipode.T @ phi_inv,
        name=f"dual({G.name})" if G.name else "dual",
        kind="dual",
    )
    return dual_group, phi


def dual(G: FiniteQuantumGroup) -> FiniteQuantumGroup:
    """The dual quantum group on A*: product = convolution, coproduct dual to
    multiplication, counit = evaluation at 1, antipode = transpose of S.

    The abstract convolution algebra is realized as a multi-matrix algebra by
    numerically splitting its regular representation."""
    return dual_pair(G)[0]


def group_like_unitaries(G: FiniteQuantumGroup) -> list[AlgebraElement]:
    """All group-like unitaries of G, i.e. the *-characters of the dual
    convolution algebra (its one-dimensional blocks), read off the transform
    of _fourier, which refuses a G that fails its axioms."""
    dual_alg, phi = _fourier(G)
    out = [G.algebra.from_vec(phi[row]) for d, row in zip(dual_alg.block_dims, dual_alg.offsets) if d == 1]
    if not all(is_group_like(G, u) for u in out):   # a numerical character that fails verification signals a bug
        raise RuntimeError("extracted dual character is not a group-like unitary")
    return out


def group_like_residual(G: FiniteQuantumGroup, u: AlgebraElement) -> float:
    """max(‖u*u − 1‖, ‖uu* − 1‖, ‖Δu − u⊗u‖), zero exactly on the group-like
    unitaries; NaN if either part is (np.max keeps a NaN the builtin drops)."""
    coproduct, alg, star = _coproduct_defect(G, u), G.algebra, G.algebra.adjoint(u.vec)
    return float(np.max([alg.max_operator_norm(alg.multiply([u.vec, star], [star, u.vec]) - alg.identity().vec),
                         G.ts.algebra.max_operator_norm(coproduct)]))


def _coproduct_defect(G: FiniteQuantumGroup, u: AlgebraElement) -> np.ndarray:
    """The vec of Δu − u⊗u in A⊗A; ValueError if u lies in another algebra than G's."""
    if u.algebra != G.algebra:
        raise ValueError("element lives in a different algebra than the quantum group")
    return G.comult @ u.vec - G.ts.scatter(u.vec, u.vec)


def is_group_like(G: FiniteQuantumGroup, u: AlgebraElement, tol: float = CHECK_TOL) -> bool:
    """True iff u is unitary and Δ(u) = u ⊗ u within tol."""
    return group_like_residual(G, u) <= tol


@dataclass(eq=False)
class QuantumSubgroup:
    """A compact quantum subgroup (H, π): a surjective *-homomorphism
    π: A → C(H) intertwining comultiplications.  intertwining_defect is the
    max coefficient norm of (π⊗π)Δ_G − Δ_H π over basis columns;
    quotient_by_support measures it once per kept-block set, and H measures
    its axiom rows once as H.axiom_defects, which verify_axioms(H, tol)
    reports at any tolerance."""

    parent: FiniteQuantumGroup
    target: FiniteQuantumGroup
    projection: np.ndarray          # (dim_H, dim_G) over vec bases
    kept_blocks: tuple[int, ...]
    intertwining_defect: float

    def apply(self, x: AlgebraElement) -> AlgebraElement:
        return self.target.algebra.from_vec(self.projection @ x.vec)


def _corner(G: FiniteQuantumGroup, kept: tuple[int, ...]) -> QuantumSubgroup:
    """The corner quotient that keeps the blocks kept, with the
    Plancherel state of the corner as its Haar state (the default) and its
    intertwining defect measured; its axioms are left to quotient_by_support."""
    alg = G.algebra
    sub_alg = MultiMatrixAlgebra(tuple(alg.block_dims[k] for k in kept))
    keep = np.flatnonzero(np.isin(alg.coordinates[0], kept))
    proj = np.eye(alg.dim)[keep]
    proj.flags.writeable = False   # shared by every quotient served from G.corners
    # π keeps coordinates, so π⊗π is a gather, and π∘ι = id gives Δ_H = (π⊗π)Δι
    pos_h = tensor_algebra(sub_alg, sub_alg).positions.reshape(sub_alg.dim, sub_alg.dim)
    image = np.empty((sub_alg.dim ** 2, alg.dim), dtype=np.complex128)
    image[pos_h] = G.comult[G.pos_matrix[np.ix_(keep, keep)]]   # (π⊗π)Δ(e_c)
    comult = image[:, keep]
    target = FiniteQuantumGroup(
        algebra=sub_alg,
        comult=comult,
        counit=Functional.from_covector(sub_alg, G.counit.covector[keep]),
        antipode=G.antipode[np.ix_(keep, keep)],
        name=f"{G.name}/corner" if G.name else "corner",
        kind="corner",
    )
    return QuantumSubgroup(parent=G, target=target, projection=proj, kept_blocks=kept,
                           intertwining_defect=float(np.linalg.norm(image - comult @ proj, ord=np.inf)))


def quotient_by_support(G: FiniteQuantumGroup, s: AlgebraElement, tol: float = STATE_TOL) -> QuantumSubgroup:
    """Compact quantum subgroup carried by the corner sA of a central
    projection s (the support of a Haar idempotent state).

    π is the corner compression; the induced comultiplication is checked to
    be well defined and the resulting structure, with the Plancherel state
    of the corner as its Haar state, must pass all axioms, which fails
    exactly when s is not the support of a Haar idempotent.

    The corner depends only on its kept blocks, so it is built and its
    intertwining defect measured once per group and kept set
    (``G.corners``); its 16 axiom rows are those its target measures once,
    H.axiom_defects.  Every call checks the centrality of s,
    read off s.centrality, compares the stored numbers at its own
    tolerance and returns the stored corner.  π is a coordinate
    compression onto the kept blocks, surjective by construction."""
    if s.algebra != G.algebra:
        raise ValueError("support projection lives in a different algebra")
    if not is_central(s, tol):
        raise ValueError("support projection is not central")
    kept = tuple(np.flatnonzero(s.centrality[1][1] <= tol).tolist())
    if not kept:
        raise ValueError("support projection is zero")
    corner = G.corners.get(kept) or _corner(G, kept)
    check_tol = max(tol, CHECK_TOL)
    if corner.intertwining_defect > check_tol:
        raise ValueError(
            f"induced comultiplication is not well defined (defect {corner.intertwining_defect:.2e}); "
            "the projection is not the support of a Haar idempotent"
        )
    G.corners[kept] = corner
    rep = verify_axioms(corner.target, check_tol)
    if not rep.passed:
        raise ValueError(
            f"corner structure fails quantum group axioms: {rep.failures()}; "
            "the projection is not the support of a Haar idempotent"
        )
    return corner
