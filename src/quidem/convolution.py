"""The convolution algebra of functionals on a finite quantum group:
products, the explicit matrix of a left convolution operator, the sharp
involution, and limits of averaged convolution powers."""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .algebra import _SCREEN_MARGIN, CHECK_TOL, STATE_TOL, Functional, _rows, _take, above_cutoff
from .qgroup import FiniteQuantumGroup


def _require_on(G: FiniteQuantumGroup, *functionals: Functional):
    """Raise ValueError unless every functional lives on the algebra of G."""
    if any(f.algebra != G.algebra for f in functionals):
        raise ValueError("functionals do not live on this quantum group")


def convolve(G: FiniteQuantumGroup, omega: Functional, mu: Functional) -> Functional:
    """ω ⋆ μ = (ω ⊗ μ) ∘ Δ, computed through the adjoint of Δ on covectors."""
    _require_on(G, omega, mu)
    return Functional.from_covector(G.algebra, np.einsum("i,j,ijc->c", omega.covector, mu.covector, G.d3))


def idempotency_defect(G: FiniteQuantumGroup, omega: Functional) -> float:
    """‖ω⋆ω − ω‖ in the dual norm, measured once per (G, ω) and kept in G.idempotency."""
    return idempotency_defects(G, [omega])[0]


def idempotency_defects(G: FiniteQuantumGroup, functionals) -> list[float]:
    """idempotency_defect of each functional; those not yet in G.idempotency
    are measured in one stack, with their cohort siblings that lack theirs
    on each cohort's first request for G's (algebra._take), and kept there."""
    todo = [f for f in functionals if f not in G.idempotency]
    if todo:
        def keep(fs):
            for f, defect in zip(fs, _idempotency_defects(G, fs)):
                G.idempotency[f] = defect

        # G enters the cohorts' requests by weak reference, so that they do not keep it alive
        _take(keep, todo, weakref.ref(G), lambda f: f not in G.idempotency)
    return [G.idempotency[f] for f in functionals]


def _idempotency_defects(G: FiniteQuantumGroup, functionals) -> list[float]:
    """‖ω⋆ω − ω‖ in the dual norm of each ω, from one stacked convolution,
    bit for bit convolve of each, and one stacked trace norm."""
    _require_on(G, *functionals)
    A = G.algebra
    c = _rows([f.covector for f in functionals])
    # the density of a covector c is c[transpose_perm], so this is (ω⋆ω)'s density minus ω's
    return A.trace_norms((np.einsum("ki,kj,ijc->kc", c, c, G.d3) - c)[:, A.transpose_perm])


@dataclass(eq=False)
class ConvolutionOperator:
    """Explicit matrix of L_ω: a ↦ (ω⊗id)Δa."""

    group: FiniteQuantumGroup
    matrix: np.ndarray

    def __call__(self, x):
        return self.group.algebra.from_vec(self.matrix @ x.vec)


def left_conv_operator(G: FiniteQuantumGroup, omega: Functional) -> ConvolutionOperator:
    _require_on(G, omega)
    return ConvolutionOperator(G, G.left_matrix(omega.covector))


def commutes_with_right_convolutions(G: FiniteQuantumGroup, matrix: np.ndarray, tol: float = STATE_TOL) -> bool:
    """Check T R_ν = R_ν T for ν running over the dual basis (hence all ν); as
    ‖c‖₂ ≤ ‖c‖_F, a commutator c takes an SVD only if ‖c‖_F ≥ tol(1 − _SCREEN_MARGIN).
    ValueError unless T is a (dim, dim) matrix on the algebra of G."""
    if np.shape(matrix) != (G.dim, G.dim):
        raise ValueError(f"operator of shape {np.shape(matrix)} does not act on this quantum group (dim {G.dim})")
    r = np.swapaxes(G.d3, 0, 1)            # r[j] = R_{e_j*} = d3[:, j, :]
    comm = matrix @ r - r @ matrix
    comm = comm[~(np.linalg.norm(comm, axis=(-2, -1)) <= tol * (1 - _SCREEN_MARGIN))]
    return not (np.linalg.norm(comm, 2, axis=(-2, -1)) > tol).any()


def sharp(G: FiniteQuantumGroup, omega: Functional) -> Functional:
    """ω♯(a) = conj(ω(S(a)*)); an involution and a ⋆-anti-automorphism."""
    _require_on(G, omega)
    return Functional.from_covector(G.algebra, G.sharp_matrix @ np.conj(omega.covector))


@dataclass(eq=False)
class CesaroResult:
    """Outcome of cesaro_limit.  When converged, limit is the limit of the
    averages (1/N)·Σ_{n≤N} μ^⋆n: μ itself when μ is idempotent, else the
    mean-ergodic projection of μ, and then ergodic_finish is set."""

    limit: Functional | None
    converged: bool
    iterations: int               # products of the route: 1, or 4 with the projection; a seed
                                  # already in G.idempotency is not convolved again
    idempotency_defect: float
    ergodic_finish: bool          # whether the mean-ergodic projection was taken
    checkpoint = 1                # the only average formed: ω_1 = μ

    def __bool__(self):
        return self.converged


def cesaro_limit(
    G: FiniteQuantumGroup,
    mu: Functional,
    tol: float = CHECK_TOL,
    max_iter: int = 100_000,
) -> CesaroResult:
    """Limit of the averages ω_N = (1/N) Σ_{n=1..N} μ^⋆n for ‖μ‖ ≤ 1.

    In finite dimension T = L_μ is a contraction, so A* = ker(T−1) ⊕ ran(T−1):
    μ = x + (T−1)y with T x = x, and ω_N = x + (T^N − 1)y/N tends to x, the
    mean-ergodic projection of μ onto the fixed space of T (compare
    Franz–Skalski, Colloq. Math. 113 (2008)).  A seed with μ⋆μ = μ within tol
    is its own limit and is returned after one convolution product.
    Otherwise x is taken from one SVD of T − 1 and returned once x⋆x = x and
    μ⋆x = x⋆μ = x hold within tol, which costs three more products; max_iter
    bounds the number of products, so a budget below four returns such a
    seed unconverged.  Both idempotency tests are idempotency_defect's, so
    the defect of the limit returned is kept in G.idempotency.
    """
    if not 0 <= tol < np.inf:
        raise ValueError(f"cesaro_limit requires a finite tol at least 0, got {tol}")
    if max_iter < 1:
        raise ValueError(f"cesaro_limit requires max_iter at least 1, got {max_iter}")
    if mu.norm > 1 + STATE_TOL:
        raise ValueError(f"cesaro_limit requires a contractive seed, got norm {mu.norm:.6f}")

    def result(ops, limit=None, finish=True):
        return CesaroResult(limit=limit, converged=limit is not None, iterations=ops,
                            idempotency_defect=defect, ergodic_finish=finish)

    defect = idempotency_defect(G, mu)
    if defect <= tol:
        return result(1, mu, finish=False)
    if max_iter < 4:
        return result(1, finish=False)
    limit = _mean_ergodic_projection(G, mu)
    if limit is None:
        return result(1)
    defect = idempotency_defect(G, limit)
    absorb = max((convolve(G, mu, limit) - limit).norm, (convolve(G, limit, mu) - limit).norm)
    return result(4) if max(defect, absorb) > tol else result(4, limit)


def _mean_ergodic_projection(G: FiniteQuantumGroup, mu: Functional) -> Functional | None:
    """x in μ = x + (T−1)y with T x = x, T = L_μ, from one SVD of T − 1 cut
    at RANK_CUTOFF·max(1, s[0]); None when the kernel and range it cuts do
    not span A*."""
    u, s, vh = np.linalg.svd(G.left_matrix(mu.covector).T - np.eye(G.dim))
    rank = int(np.sum(above_cutoff(s, max(1.0, s[0]))))
    kernel = vh[rank:].conj().T
    try:
        coeff = np.linalg.solve(np.hstack([kernel, u[:, :rank]]), mu.covector)
    except np.linalg.LinAlgError:
        return None
    return Functional.from_covector(G.algebra, kernel @ coeff[: kernel.shape[1]])
