"""Numerical Artin-Wedderburn decomposition of a finite-dimensional
*-algebra presented through its left regular representation.

Given the left-multiplication matrices of a basis (as a *-representation on
the GNS space of a faithful trace) and matching right-multiplication
matrices spanning the commutant, a random Hermitian commutant element is
diagonalized; its eigenspaces are irreducible left submodules, one block of
size d appearing d times.  Grouping eigenspaces by character and keeping one
representative per class yields a *-isomorphism onto ⊕_k M_{n_k}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import CHECK_TOL

_CLUSTER_GAP = 1e-6   # least relative gap between distinct eigenvalues or characters
_MAX_ATTEMPTS = 12    # random commutant elements drawn before giving up


@dataclass(eq=False)
class BlockSplit:
    """Result of a decomposition: block dimensions and the isometries picking
    one irreducible submodule per equivalence class."""

    block_dims: tuple[int, ...]
    isometries: list[np.ndarray]   # one N×d isometry per block, class order

    def map_matrix(self, left_mults: np.ndarray) -> np.ndarray:
        """Matrix of the *-isomorphism b ↦ ⊕_k Q_k† L_b Q_k over the input
        basis, from the (dim, N, N) stack of the L_b, with columns in the vec
        coordinates of ⊕ M_{n_k}."""
        dim = len(left_mults)
        return np.concatenate([(q.conj().T @ left_mults @ q).reshape(dim, -1) for q in self.isometries],
                              axis=1).T


def _cluster(eigenvalues: np.ndarray) -> list[np.ndarray]:
    scale = max(1.0, float(np.abs(eigenvalues).max()))
    clusters, start = [], 0
    for i in range(1, len(eigenvalues) + 1):
        if i == len(eigenvalues) or eigenvalues[i] - eigenvalues[i - 1] > _CLUSTER_GAP * scale:
            clusters.append(np.arange(start, i))
            start = i
    return clusters


def decompose(left_mults: np.ndarray, right_mults: np.ndarray, rng: np.random.Generator) -> BlockSplit:
    """Split C^N into one irreducible left submodule per block.

    left_mults/right_mults: (dim, N, N) stacks of the matrices of
    left/right multiplication by each basis element, in coordinates where
    left multiplication is a *-representation (orthonormal GNS coordinates
    of a faithful trace).
    An eigenspace counts as invariant within CHECK_TOL.
    """
    n = left_mults.shape[1]
    last_error = None
    for attempt in range(1, _MAX_ATTEMPTS + 1):
        coeff = rng.standard_normal(len(right_mults)) + 1j * rng.standard_normal(len(right_mults))
        x = sum(c * r for c, r in zip(coeff, right_mults))
        h = x + x.conj().T
        w, v = np.linalg.eigh(h)
        clusters = _cluster(w)
        try:
            return _extract(left_mults, v, clusters, n)
        except _SplitFailure as exc:  # unlucky sample; retry with fresh coefficients
            import logging   # on first use: at start-up it slows every CLI run by 5-15 ms

            logging.getLogger(__name__).debug(
                "block decomposition attempt %d/%d failed: %s", attempt, _MAX_ATTEMPTS, exc
            )
            last_error = exc
    raise RuntimeError(f"block decomposition failed after {_MAX_ATTEMPTS} attempts: {last_error}")


class _SplitFailure(Exception):
    pass


def _extract(left_mults, v, clusters, n) -> BlockSplit:
    reps = []
    for idx in clusters:
        q = v[:, idx]
        compressed = q.conj().T @ left_mults @ q   # Q† L_b Q for every basis element b
        # eigenspaces of a commutant element must be invariant under the algebra
        residual = float(np.linalg.norm(left_mults @ q - q @ compressed, 2, axis=(1, 2)).max())
        if residual > CHECK_TOL:
            raise _SplitFailure(f"cluster is not an invariant subspace (residual {residual:.2e})")
        reps.append((q, np.trace(compressed, axis1=1, axis2=2)))
    # group clusters carrying the same character (equivalent submodules)
    classes: list[list] = []
    for q, char in reps:
        for cls in classes:
            if np.linalg.norm(cls[0][1] - char) <= _CLUSTER_GAP * max(1.0, np.linalg.norm(char)):
                cls.append((q, char))
                break
        else:
            classes.append([(q, char)])
    dims = [cls[0][0].shape[1] for cls in classes]
    for cls, d in zip(classes, dims):
        if any(q.shape[1] != d for q, _ in cls):
            raise _SplitFailure("inconsistent dimensions inside a character class")
        if len(cls) != d:
            raise _SplitFailure("multiplicity does not match dimension (accidental degeneracy)")
    if sum(d * d for d in dims) != n:
        raise _SplitFailure(f"block dimensions {dims} do not fill dimension {n}")
    order = sorted(
        range(len(classes)),
        key=lambda i: (
            dims[i],
            tuple(zip(np.round(classes[i][0][1].real, 8), np.round(classes[i][0][1].imag, 8))),
        ),
    )
    return BlockSplit(
        block_dims=tuple(dims[i] for i in order),
        isometries=[classes[i][0][0] for i in order],
    )
