"""The convolution algebra of functionals on a finite quantum group:
products, the explicit matrix of a left convolution operator, the sharp
involution, and limits of averaged convolution powers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import _SCREEN_MARGIN, CHECK_TOL, STATE_TOL, Functional, above_cutoff
from .qgroup import FiniteQuantumGroup


def convolve(G: FiniteQuantumGroup, omega: Functional, mu: Functional) -> Functional:
    """ω ⋆ μ = (ω ⊗ μ) ∘ Δ, computed through the adjoint of Δ on covectors."""
    if omega.algebra != G.algebra or mu.algebra != G.algebra:
        raise ValueError("functionals do not live on this quantum group")
    return Functional.from_covector(G.algebra, G.convolve_cov(omega.covector, mu.covector))


@dataclass(eq=False)
class ConvolutionOperator:
    """Explicit matrix of L_ω: a ↦ (ω⊗id)Δa."""

    group: FiniteQuantumGroup
    matrix: np.ndarray

    def __call__(self, x):
        return self.group.algebra.from_vec(self.matrix @ x.vec)


def left_conv_operator(G: FiniteQuantumGroup, omega: Functional) -> ConvolutionOperator:
    return ConvolutionOperator(G, G.left_matrix(omega.covector))


def commutes_with_right_convolutions(G: FiniteQuantumGroup, matrix: np.ndarray, tol: float = STATE_TOL) -> bool:
    """Check T R_ν = R_ν T for ν running over the dual basis (hence all ν); as
    ‖c‖₂ ≤ ‖c‖_F, a commutator c takes an SVD only if ‖c‖_F ≥ tol(1 − _SCREEN_MARGIN)."""
    r = np.swapaxes(G.d3, 0, 1)            # r[j] = R_{e_j*} = d3[:, j, :]
    comm = matrix @ r - r @ matrix
    comm = comm[~(np.linalg.norm(comm, axis=(-2, -1)) <= tol * (1 - _SCREEN_MARGIN))]
    return not (np.linalg.norm(comm, 2, axis=(-2, -1)) > tol).any()


def sharp(G: FiniteQuantumGroup, omega: Functional) -> Functional:
    """ω♯(a) = conj(ω(S(a)*)); an involution and a ⋆-anti-automorphism."""
    return Functional.from_covector(G.algebra, G.sharp_cov(omega.covector))


@dataclass(eq=False)
class CesaroResult:
    """Outcome of cesaro_limit.  When converged, limit is the averaged
    convolution power (1/N)·Σ_{n≤N} μ^⋆n at the final checkpoint N, or the
    mean-ergodic projection of μ when ergodic_finish is set; N is then the
    checkpoint at which the averaging gave way to it."""

    limit: Functional | None
    converged: bool
    iterations: int               # number of convolution products performed
    checkpoint: int               # the N of the returned average
    idempotency_defect: float
    increment: float
    ergodic_finish: bool          # whether the mean-ergodic finish ran

    def __bool__(self):
        return self.converged


# Doubling checkpoints stay below N = 2^20: past that, the O(1/N) averaging
# error competes with the floating-point drift that repeated squaring of
# μ^⋆N amplifies by a factor of N.
_MAX_DOUBLINGS = 20


def cesaro_limit(
    G: FiniteQuantumGroup,
    mu: Functional,
    tol: float = CHECK_TOL,
    max_iter: int = 100_000,
) -> CesaroResult:
    """Limit of the averages ω_N = (1/N) Σ_{n=1..N} μ^⋆n for ‖μ‖ ≤ 1.

    The averages are evaluated at doubling checkpoints N = 2^k through the
    exact recursion  s_{2N} = s_N + μ^⋆N ⋆ s_N  until both the step between
    checkpoints and the idempotency defect fall below tol; max_iter bounds
    the number of convolution products.  In finite dimension μ = x + (T−1)y
    with T = L_μ and T x = x, so ω_N = x + (T^N − 1)y/N: the error, and with
    it the idempotency defect, falls like 1/N.  Once defect·N exceeds
    tol·2^20, averaging cannot bring the defect under tol within the
    drift-safe checkpoints, and the limit is taken as x, the mean-ergodic
    projection of μ onto the fixed space of T, computed from μ alone; the
    stopping conditions are then verified on it directly.  The returned ω
    also satisfies μ⋆ω = ω⋆μ = ω within tol.
    """
    if not 0 <= tol < np.inf:
        raise ValueError(f"cesaro_limit requires a finite tol at least 0, got {tol}")
    if max_iter < 1:
        raise ValueError(f"cesaro_limit requires max_iter at least 1, got {max_iter}")
    if mu.norm > 1 + STATE_TOL:
        raise ValueError(f"cesaro_limit requires a contractive seed, got norm {mu.norm:.6f}")
    conv, cov_mu = G.convolve_cov, mu.covector
    power = cov_mu.copy()          # μ^⋆N
    total = cov_mu.copy()          # Σ_{n≤N} μ^⋆n
    checkpoint, ops, increment, finish = 1, 0, 0.0, False
    reach = tol * 2 ** _MAX_DOUBLINGS   # the largest defect·N that averaging can still bring under tol

    def norm(cov):
        return Functional.from_covector(G.algebra, cov).norm

    def status(cov_avg):
        return norm(conv(cov_avg, cov_avg) - cov_avg)

    def result(limit_cov=None):
        """The outcome so far; converged exactly when a limit is given."""
        return CesaroResult(
            limit=None if limit_cov is None else Functional.from_covector(G.algebra, limit_cov),
            converged=limit_cov is not None, iterations=ops, checkpoint=checkpoint,
            idempotency_defect=defect, increment=float(increment), ergodic_finish=finish,
        )

    prev_avg = total / checkpoint
    defect = status(prev_avg)
    ops += 1
    if defect <= tol:
        return result(prev_avg)
    increment = np.inf
    for _ in range(_MAX_DOUBLINGS):
        if defect * checkpoint > reach or ops + 3 > max_iter:
            break
        shifted = conv(power, total)
        power = conv(power, power)
        total = total + shifted
        checkpoint *= 2
        ops += 2
        avg = total / checkpoint
        increment = norm(avg - prev_avg)
        defect = status(avg)
        ops += 1
        prev_avg = avg
        if increment <= tol and defect <= tol:
            return result(avg)
    if ops + 3 > max_iter:
        return result()
    # mean-ergodic finish: decompose μ = x + (T−1)y with T x = x and return x
    import logging   # on first use: at start-up it slows every CLI run by 5-15 ms

    logging.getLogger(__name__).debug(
        "cesaro_limit: mean-ergodic finish at checkpoint %d (defect %.3e, defect*N %.3e vs tol*2^20 %.3e, "
        "increment %.3e)", checkpoint, defect, defect * checkpoint, reach, increment,
    )
    finish = True
    t_mat = G.left_matrix(cov_mu).T
    a = t_mat - np.eye(G.dim)
    u, s, vh = np.linalg.svd(a)
    rank = int(np.sum(above_cutoff(s, max(1.0, s[0]))))
    kernel = vh[rank:].conj().T
    column_space = u[:, :rank]
    basis = np.hstack([kernel, column_space])
    try:
        coeff = np.linalg.solve(basis, cov_mu)
    except np.linalg.LinAlgError:
        return result()
    limit_cov = kernel @ coeff[: kernel.shape[1]]
    ops += 3
    defect = status(limit_cov)
    absorb_left = norm(conv(cov_mu, limit_cov) - limit_cov)
    absorb_right = norm(conv(limit_cov, cov_mu) - limit_cov)
    increment = norm(prev_avg - limit_cov)
    return result() if max(defect, absorb_left, absorb_right) > tol else result(limit_cov)
