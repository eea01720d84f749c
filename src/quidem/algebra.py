"""Finite-dimensional C*-algebras as direct sums of complex matrix blocks.

Elements are tuples of dense complex matrices, one per block.  Linear
functionals are stored through the unnormalized trace pairing against a
density element, so that the dual norm is the plain trace norm and states
are exactly the trace-one positive densities.  All scalars are double
precision; every value is immutable after construction and may be shared
freely between threads.

Basis convention: matrix units ordered block by block, row-major inside
each block.  ``vec`` coordinates of elements, all structure maps, and
functional covectors use this ordering throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

# Relative singular-value cutoff used for supports, ranks and partial
# isometries.  All catalogue examples have spectral gaps far above this.
RANK_CUTOFF = 1e-10


def _as_complex(m) -> np.ndarray:
    out = np.array(m, dtype=np.complex128)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class MultiMatrixAlgebra:
    """Direct sum  M_{n_1} ⊕ ... ⊕ M_{n_m}  of full complex matrix algebras."""

    block_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(n) for n in self.block_dims)
        if not dims or min(dims) < 1:
            raise ValueError("block_dims must be a nonempty sequence of positive integers")
        object.__setattr__(self, "block_dims", dims)

    @cached_property
    def dim(self) -> int:
        return int(sum(n * n for n in self.block_dims))

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        out, off = [], 0
        for n in self.block_dims:
            out.append(off)
            off += n * n
        return tuple(out)

    def index(self, block: int, row: int, col: int) -> int:
        """Vec index of the matrix unit e^(block)_{row,col}."""
        return self.offsets[block] + row * self.block_dims[block] + col

    @cached_property
    def transpose_perm(self) -> np.ndarray:
        """Permutation with vec(x^T) = vec(x)[transpose_perm] (blockwise)."""
        perm = np.empty(self.dim, dtype=np.intp)
        for n, idx in self.size_classes:
            perm[idx] = idx[:, np.arange(n * n).reshape(n, n).T.ravel()]
        perm.flags.writeable = False
        return perm

    @cached_property
    def size_classes(self) -> tuple[tuple[int, np.ndarray], ...]:
        """One (n, idx) per distinct block size n, where idx[m] lists the vec
        indices of the m-th n×n block, row-major."""
        out = []
        for n in sorted(set(self.block_dims)):
            starts = [off for off, m in zip(self.offsets, self.block_dims) if m == n]
            idx = np.add.outer(np.array(starts, dtype=np.intp), np.arange(n * n))
            idx.flags.writeable = False
            out.append((n, idx))
        return tuple(out)

    def multiply(self, x, y) -> np.ndarray:
        """Blockwise products of stacks of vecs, broadcast over leading axes."""
        x, y = np.asarray(x), np.asarray(y)
        out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=np.result_type(x, y))
        for n, idx in self.size_classes:
            if n == 1:
                out[..., idx[:, 0]] = x[..., idx[:, 0]] * y[..., idx[:, 0]]
                continue
            xb = x[..., idx].reshape(x.shape[:-1] + (len(idx), n, n))
            yb = y[..., idx].reshape(y.shape[:-1] + (len(idx), n, n))
            out[..., idx] = (xb @ yb).reshape(out.shape[:-1] + idx.shape)
        return out

    def operator_norms(self, x) -> np.ndarray:
        """Operator norm of each vec in a stack: the largest block singular
        value, by abs on 1×1 blocks and one batched SVD per larger size."""
        x = np.asarray(x)
        out = np.zeros(x.shape[:-1])
        for n, idx in self.size_classes:
            if n == 1:
                norms = np.abs(x[..., idx[:, 0]])
            else:
                blocks = x[..., idx].reshape(x.shape[:-1] + (len(idx), n, n))
                norms = np.linalg.svd(blocks, compute_uv=False)[..., 0]
            out = np.maximum(out, norms.max(axis=-1))
        return out

    def adjoint(self, x) -> np.ndarray:
        """Blockwise adjoints of a stack of vecs."""
        return np.conj(np.asarray(x)[..., self.transpose_perm])

    def split(self, vec: np.ndarray) -> list[np.ndarray]:
        """Cut a vec of length dim into per-block (n, n) matrices."""
        vec = np.asarray(vec, dtype=np.complex128)
        if vec.shape != (self.dim,):
            raise ValueError(f"expected vector of length {self.dim}, got {vec.shape}")
        return [
            vec[off: off + n * n].reshape(n, n)
            for off, n in zip(self.offsets, self.block_dims)
        ]

    def element(self, blocks) -> "AlgebraElement":
        return AlgebraElement(self, tuple(blocks))

    def from_vec(self, vec: np.ndarray) -> "AlgebraElement":
        return AlgebraElement(self, tuple(self.split(vec)))

    def zero(self) -> "AlgebraElement":
        return self.element(np.zeros((n, n)) for n in self.block_dims)

    def identity(self) -> "AlgebraElement":
        return self.element(np.eye(n) for n in self.block_dims)

    def basis_element(self, i: int) -> "AlgebraElement":
        vec = np.zeros(self.dim, dtype=np.complex128)
        vec[i] = 1.0
        return self.from_vec(vec)

    def basis(self) -> list["AlgebraElement"]:
        return [self.basis_element(i) for i in range(self.dim)]

    def random_element(self, rng: np.random.Generator, hermitian: bool = False) -> "AlgebraElement":
        blocks = []
        for n in self.block_dims:
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            if hermitian:
                m = (m + m.conj().T) / 2
            blocks.append(m)
        return self.element(blocks)

    def random_functional(self, rng: np.random.Generator) -> "Functional":
        return Functional(self, self.random_element(rng))

    def random_state(self, rng: np.random.Generator) -> "Functional":
        """Random faithful-ish state: normalized sum of random rank-n Gram blocks."""
        blocks = []
        for n in self.block_dims:
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            blocks.append(g @ g.conj().T)
        total = sum(np.trace(b).real for b in blocks)
        return Functional(self, self.element(b / total for b in blocks))


@dataclass(eq=False)
class AlgebraElement:
    """An element of a MultiMatrixAlgebra, one dense matrix per block."""

    algebra: MultiMatrixAlgebra
    blocks: tuple

    def __post_init__(self):
        blocks = tuple(_as_complex(b) for b in self.blocks)
        for b, n in zip(blocks, self.algebra.block_dims, strict=True):
            if b.shape != (n, n):
                raise ValueError(f"block of shape {b.shape} does not match dimension {n}")
        object.__setattr__(self, "blocks", blocks)

    @cached_property
    def vec(self) -> np.ndarray:
        out = np.concatenate([b.ravel() for b in self.blocks])
        out.flags.writeable = False
        return out

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(self.algebra, tuple(a + b for a, b in zip(self.blocks, other.blocks)))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(self.algebra, tuple(a - b for a, b in zip(self.blocks, other.blocks)))

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, tuple(-a for a in self.blocks))

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check(other)
            return AlgebraElement(self.algebra, tuple(a @ b for a, b in zip(self.blocks, other.blocks)))
        return AlgebraElement(self.algebra, tuple(other * a for a in self.blocks))

    def __rmul__(self, scalar) -> "AlgebraElement":
        return AlgebraElement(self.algebra, tuple(scalar * a for a in self.blocks))

    def _check(self, other: "AlgebraElement"):
        if self.algebra != other.algebra:
            raise ValueError("elements live in different algebras")

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, tuple(a.conj().T for a in self.blocks))

    @property
    def trace(self) -> complex:
        return complex(sum(np.trace(b) for b in self.blocks))

    @property
    def operator_norm(self) -> float:
        return float(self.algebra.operator_norms(self.vec))

    @property
    def trace_norm(self) -> float:
        return float(sum(np.linalg.svd(b, compute_uv=False).sum() for b in self.blocks))

    def is_hermitian(self, tol: float = 1e-9) -> bool:
        return (self - self.adjoint()).operator_norm <= tol

    def is_projection(self, tol: float = 1e-9) -> bool:
        return self.is_hermitian(tol) and (self * self - self).operator_norm <= tol

    def is_unitary(self, tol: float = 1e-9) -> bool:
        ident = self.algebra.identity()
        return (
            (self * self.adjoint() - ident).operator_norm <= tol
            and (self.adjoint() * self - ident).operator_norm <= tol
        )

    def is_positive(self, tol: float = 1e-9) -> bool:
        if not self.is_hermitian(tol):
            return False
        return all(np.linalg.eigvalsh((b + b.conj().T) / 2).min() >= -tol for b in self.blocks)

    def __repr__(self):
        return f"AlgebraElement(blocks={self.algebra.block_dims}, norm={self.operator_norm:.4g})"


@dataclass(eq=False)
class Functional:
    """Element of the dual space, ω(x) = Tr(density · x) with Tr the sum of
    unnormalized block traces."""

    algebra: MultiMatrixAlgebra
    density: AlgebraElement

    def __post_init__(self):
        if self.density.algebra != self.algebra:
            raise ValueError("density lives in a different algebra")

    @classmethod
    def from_covector(cls, algebra: MultiMatrixAlgebra, cov: np.ndarray) -> "Functional":
        """Functional with values cov[i] on the matrix-unit basis."""
        cov = np.asarray(cov, dtype=np.complex128)
        return cls(algebra, algebra.from_vec(cov[algebra.transpose_perm]))

    @classmethod
    def zero(cls, algebra: MultiMatrixAlgebra) -> "Functional":
        return cls(algebra, algebra.zero())

    @cached_property
    def covector(self) -> np.ndarray:
        """Values on the matrix-unit basis: ω(x) = covector · vec(x)."""
        out = self.density.vec[self.algebra.transpose_perm]
        out.flags.writeable = False
        return out

    def __call__(self, x: AlgebraElement) -> complex:
        return complex(np.dot(self.covector, x.vec))

    @property
    def norm(self) -> float:
        return self.density.trace_norm

    def __add__(self, other: "Functional") -> "Functional":
        return Functional(self.algebra, self.density + other.density)

    def __sub__(self, other: "Functional") -> "Functional":
        return Functional(self.algebra, self.density - other.density)

    def __neg__(self) -> "Functional":
        return Functional(self.algebra, -self.density)

    def __mul__(self, scalar) -> "Functional":
        return Functional(self.algebra, scalar * self.density)

    __rmul__ = __mul__

    def is_positive(self, tol: float = 1e-9) -> bool:
        return self.density.is_positive(tol)

    def is_state(self, tol: float = 1e-9) -> bool:
        return self.is_positive(tol) and abs(self.density.trace - 1.0) <= tol

    def conjugate(self) -> "Functional":
        """The functional a ↦ conj(ω(a*)); its density is density*."""
        return Functional(self.algebra, self.density.adjoint())

    def __repr__(self):
        return f"Functional(blocks={self.algebra.block_dims}, norm={self.norm:.4g})"


def act_left(a: AlgebraElement, omega: Functional) -> Functional:
    """a.ω with (a.ω)(y) = ω(y a); the density is a·d_ω."""
    return Functional(omega.algebra, a * omega.density)


def act_right(omega: Functional, a: AlgebraElement) -> Functional:
    """ω.a with (ω.a)(y) = ω(a y); the density is d_ω·a."""
    return Functional(omega.algebra, omega.density * a)


@dataclass(eq=False)
class PolarParts:
    """Polar data of a functional: ω = u.abs_r = abs_l.u with the partial
    isometry u satisfying u*u = supp(abs_r) and uu* = supp(abs_l)."""

    u: AlgebraElement
    abs_r: Functional
    abs_l: Functional


def polar_decompose(omega: Functional, cutoff: float = RANK_CUTOFF) -> PolarParts:
    """Per-block polar decomposition of the density, d = u·|d|, via SVD with
    a relative rank cutoff.  Raises on the zero functional."""
    d_blocks = omega.density.blocks
    all_svals = [np.linalg.svd(b, compute_uv=False) for b in d_blocks]
    smax = max((s[0] if len(s) else 0.0) for s in all_svals)
    if smax == 0.0:
        raise ValueError("polar decomposition of the zero functional")
    threshold = cutoff * smax
    u_blocks, p_blocks, q_blocks = [], [], []
    for b in d_blocks:
        w, s, vh = np.linalg.svd(b)
        r = int(np.sum(s > threshold))
        wr, sr, vhr = w[:, :r], s[:r], vh[:r, :]
        u_blocks.append(wr @ vhr)
        p_blocks.append(vhr.conj().T @ np.diag(sr) @ vhr)   # (d* d)^{1/2}
        q_blocks.append(wr @ np.diag(sr) @ wr.conj().T)     # (d d*)^{1/2}
    alg = omega.algebra
    u = alg.element(u_blocks)
    return PolarParts(
        u=u,
        abs_r=Functional(alg, alg.element(p_blocks)),
        abs_l=Functional(alg, alg.element(q_blocks)),
    )


def support_projection(x: AlgebraElement, cutoff: float = RANK_CUTOFF) -> AlgebraElement:
    """Support projection of a positive element (range projection per block)."""
    eigs = [np.linalg.eigvalsh((b + b.conj().T) / 2) for b in x.blocks]
    emax = max((e[-1] if len(e) else 0.0) for e in eigs)
    threshold = cutoff * max(emax, 0.0)
    blocks = []
    for b in x.blocks:
        w, v = np.linalg.eigh((b + b.conj().T) / 2)
        keep = v[:, w > threshold]
        blocks.append(keep @ keep.conj().T)
    return x.algebra.element(blocks)


def null_space_basis(omega: Functional, cutoff: float = RANK_CUTOFF, tol: float = 1e-9) -> list[AlgebraElement]:
    """Basis of N_ω = {a : ω(a*a) = 0} = A(1 − s), s the support of the density.

    Requires ω positive.  The basis elements are e_i w* with w running over an
    orthonormal basis of ker(s) in each block.
    """
    if not omega.is_positive(tol):
        raise ValueError("null space is defined for positive functionals only")
    alg = omega.algebra
    eigs = [np.linalg.eigvalsh((b + b.conj().T) / 2) for b in omega.density.blocks]
    emax = max((e[-1] if len(e) else 0.0) for e in eigs)
    threshold = cutoff * max(emax, 0.0)
    basis = []
    for k, b in enumerate(omega.density.blocks):
        n = alg.block_dims[k]
        w, v = np.linalg.eigh((b + b.conj().T) / 2)
        kernel = v[:, w <= threshold]
        for j in range(kernel.shape[1]):
            col = kernel[:, j]
            for i in range(n):
                blocks = [np.zeros((m, m), dtype=np.complex128) for m in alg.block_dims]
                blocks[k][i, :] = col.conj()
                basis.append(alg.element(blocks))
    return basis


def is_central(p: AlgebraElement, tol: float = 1e-9) -> bool:
    """True iff the projection p is a sum of full block identities."""
    if not p.is_projection(tol):
        raise ValueError("is_central expects a projection")
    for b, n in zip(p.blocks, p.algebra.block_dims):
        if not (np.linalg.norm(b, 2) <= tol or np.linalg.norm(b - np.eye(n), 2) <= tol):
            return False
    return True


@dataclass(eq=False)
class TensorSplit:
    """Tensor product A⊗B with bookkeeping between pair coordinates and the
    vec coordinates of the product algebra.

    positions[i_A * dim_B + i_B] is the vec index, in the product algebra, of
    the matrix unit e_{i_A} ⊗ e_{i_B} (Kronecker convention per block pair).
    """

    left: MultiMatrixAlgebra
    right: MultiMatrixAlgebra
    algebra: MultiMatrixAlgebra
    positions: np.ndarray

    def scatter(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Vec of the product algebra whose (I,J) coefficient is u[I]·v[J]."""
        out = np.empty(self.algebra.dim, dtype=np.complex128)
        out[self.positions] = np.kron(np.asarray(u, dtype=np.complex128),
                                      np.asarray(v, dtype=np.complex128))
        return out

    def element(self, a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
        return self.algebra.from_vec(self.scatter(a.vec, b.vec))

    def functional(self, f: Functional, g: Functional) -> Functional:
        """(f⊗g)(x⊗y) = f(x) g(y); density is the blockwise Kronecker product."""
        density_vec = self.scatter(f.density.vec, g.density.vec)
        return Functional(self.algebra, self.algebra.from_vec(density_vec))

    @cached_property
    def flip(self) -> np.ndarray:
        """Index array with (flip of v)[pos(J,I)] = v[pos(I,J)] for A = B."""
        if self.left != self.right:
            raise ValueError("flip is only defined on square tensor products")
        d = self.left.dim
        out = np.empty(self.algebra.dim, dtype=np.intp)
        for i in range(d):
            for j in range(d):
                out[self.positions[j * d + i]] = self.positions[i * d + j]
        out.flags.writeable = False
        return out


@lru_cache(maxsize=None)
def tensor_algebra(a: MultiMatrixAlgebra, b: MultiMatrixAlgebra) -> TensorSplit:
    """Tensor product algebra: one block of size n_i·m_j per block pair, in
    lexicographic pair order, with Kronecker-product coordinates."""
    dims = []
    for ni in a.block_dims:
        for mj in b.block_dims:
            dims.append(ni * mj)
    prod = MultiMatrixAlgebra(tuple(dims))
    pos = np.empty(a.dim * b.dim, dtype=np.intp)
    nb = len(b.block_dims)
    for bi, ni in enumerate(a.block_dims):
        for bj, mj in enumerate(b.block_dims):
            off = prod.offsets[bi * nb + bj]
            for r in range(ni):
                for t in range(ni):
                    ia = a.index(bi, r, t)
                    for s in range(mj):
                        for u in range(mj):
                            ib = b.index(bj, s, u)
                            pos[ia * b.dim + ib] = off + (r * mj + s) * (ni * mj) + (t * mj + u)
    pos.flags.writeable = False
    return TensorSplit(left=a, right=b, algebra=prod, positions=pos)


def left_mult_matrix(a: AlgebraElement) -> np.ndarray:
    """Matrix of x ↦ a·x on vec coordinates (blockwise kron(a_k, I))."""
    return a.algebra.multiply(a.vec, np.eye(a.algebra.dim)).T


def right_mult_matrix(a: AlgebraElement) -> np.ndarray:
    """Matrix of x ↦ x·a on vec coordinates (blockwise kron(I, a_kᵀ))."""
    return a.algebra.multiply(np.eye(a.algebra.dim), a.vec).T


def norm_attainer(omega: Functional) -> AlgebraElement:
    """Unit-norm element x with ω(x) = ‖ω‖: x = V W* per block, from the
    singular value decomposition d = W Σ V* of the density."""
    blocks = []
    for b in omega.density.blocks:
        w, s, vh = np.linalg.svd(b)
        blocks.append((vh.conj().T @ w.conj().T))
    return omega.algebra.element(blocks)
