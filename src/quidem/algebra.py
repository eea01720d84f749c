"""Finite-dimensional C*-algebras as direct sums of complex matrix blocks.

An element is stored as one read-only vector of matrix-unit coordinates,
its ``vec``; the per-block matrices are views into it.  Every per-block
spectral step (norms, SVDs, eigenvalues) runs once per block size, over the
stack of all blocks of that size, and elementwise when every block is 1×1
(the algebra is ℂⁿ, as every C(G) is).  Linear functionals are stored through
the unnormalized trace pairing against a density element, so that the dual
norm is the plain trace norm and states are exactly the trace-one positive
densities.  Functionals made together (the items of one enumeration, the
absolute values of one polar pass) form a cohort, whose facts are taken in
one stacked pass on first use, bit for bit those of each functional alone.
All scalars are double precision; every value is immutable
after construction and may be shared freely between threads.

Basis convention: matrix units ordered block by block, row-major inside
each block.  ``vec`` coordinates of elements, all structure maps, and
functional covectors use this ordering throughout the package.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

# The tolerance policy: every default tolerance, every floor under a caller's
# tolerance and every cutoff shared between modules is one of these five.
CHECK_TOL = 1e-8    # identities checked through products and norms of images
STATE_TOL = 1e-9    # states, dual-norm idempotency, positivity, the axioms
# Relative cutoff of every rank, support and partial isometry, applied by
# above_cutoff.  All catalogue examples have spectral gaps far above this.
RANK_CUTOFF = 1e-10
CP_FLOOR = 1e-9     # a CP map's least Choi eigenvalue is at least -CP_FLOOR
COND_LIMIT = 1e8    # largest condition number of a basis change a build inverts: Λ of C*(G), phi of the dual
_SCREEN_MARGIN = 1e-6    # max_operator_norm's slack, far above rounding of ‖b‖_F or an SVD
_SCREEN_FLOOR = 1e-150   # below it, squares of block entries may underflow


def _as_complex(m) -> np.ndarray:
    out = np.array(m, dtype=np.complex128)
    out.flags.writeable = False
    return out


def above_cutoff(values, top):
    """The rank rule: a rank or support keeps the values above RANK_CUTOFF·top, top the largest or a floor."""
    return np.asarray(values) > RANK_CUTOFF * top


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
        return tuple(itertools.accumulate((n * n for n in self.block_dims[:-1]), initial=0))

    @cached_property
    def coordinates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(block, row, col) of the matrix unit at every vec index."""
        sizes = np.array(self.block_dims)
        block = np.repeat(np.arange(len(sizes)), sizes ** 2)
        local = np.arange(self.dim) - np.array(self.offsets)[block]
        return block, local // sizes[block], local % sizes[block]

    @cached_property
    def transpose_perm(self) -> np.ndarray:
        """Permutation with vec(x^T) = vec(x)[transpose_perm] (blockwise)."""
        block, row, col = self.coordinates
        perm = np.array(self.offsets)[block] + col * np.array(self.block_dims)[block] + row
        perm.flags.writeable = False
        return perm

    @cached_property
    def commutative(self) -> bool:
        """Every block is 1×1: the algebra is ℂⁿ.  multiply, adjoint,
        block_norms, max_operator_norm, trace_norms and the element's support
        and polar parts then take their elementwise forms first, bit for bit
        what the per-class route gives."""
        return max(self.block_dims) == 1

    @cached_property
    def size_classes(self) -> tuple[tuple[int, np.ndarray, slice | np.ndarray], ...]:
        """One (n, idx, take) per distinct block size n: idx[m] lists the vec
        indices of the m-th n×n block, row-major, and take is idx or, when the
        class is one contiguous run (every builtin algebra), a slice."""
        out = []
        for n in sorted(set(self.block_dims)):
            starts = [off for off, m in zip(self.offsets, self.block_dims) if m == n]
            idx = np.add.outer(np.array(starts, dtype=np.intp), np.arange(n * n))
            idx.flags.writeable = False
            out.append((n, idx, slice(idx[0, 0], idx[-1, -1] + 1) if idx[-1, -1] - idx[0, 0] + 1 == idx.size else idx))
        return tuple(out)

    def blocks_by_size(self, x) -> list:
        """One (n, idx, blocks) per size class: blocks[..., m, :, :] is the
        m-th n×n block of each vec in the stack x (a view when it can be)."""
        x = np.asarray(x)
        return [(n, idx, x[..., take].reshape(x.shape[:-1] + (len(idx), n, n)))
                for n, idx, take in self.size_classes]

    @cached_property
    def product_tables(self) -> tuple[tuple[slice | np.ndarray, np.ndarray, np.ndarray], ...]:
        """One (o, l, r) per k < max n: o lists the vec indices (b, r, c) of
        every block b with n_b > k, and l, r the vec indices of x_(b,r,k) and
        y_(b,k,c) for each, so that (xy)[o] is the sum over k of x[l]·y[r].
        An o that is one contiguous run, as when the block sizes do not
        decrease, is a slice, so that its sum is added in place."""
        block, row, col = self.coordinates
        sizes, offsets = np.array(self.block_dims)[block], np.array(self.offsets)[block]
        tables = []
        for k in range(max(self.block_dims)):
            o = np.flatnonzero(sizes > k)
            l, r = offsets[o] + row[o] * sizes[o] + k, offsets[o] + k * sizes[o] + col[o]
            for t in (o, l, r):
                t.flags.writeable = False
            tables.append((slice(int(o[0]), int(o[-1]) + 1) if o[-1] - o[0] + 1 == len(o) else o, l, r))
        return tuple(tables)

    def multiply(self, x, y) -> np.ndarray:
        """Blockwise products of stacks of vecs, broadcast over leading axes:
        one gather-multiply per inner index k, with no matrix product."""
        x, y = np.asarray(x), np.asarray(y)
        if self.commutative:
            return x * y
        (_, l, r), *rest = self.product_tables
        out = x[..., l] * y[..., r]
        for o, l, r in rest:
            out[..., o] += x[..., l] * y[..., r]
        return out

    @cached_property
    def mult_tensor(self) -> np.ndarray:
        """mult_tensor[o, a, b] = vec(e_a · e_b)[o] over the matrix-unit basis; built once."""
        eye = np.eye(self.dim)
        out = self.multiply(eye[:, None, :], eye[None, :, :]).transpose(2, 0, 1)
        out.flags.writeable = False
        return out

    def singular_values(self, x) -> list:
        """Singular values of every block of each vec in a stack, descending,
        as one (..., m, n) array per size class: abs on 1×1 blocks and one
        batched SVD per larger size."""
        return [np.abs(b[..., 0]) if n == 1 else np.linalg.svd(b, compute_uv=False)
                for n, _, b in self.blocks_by_size(x)]

    def trace_norms(self, x) -> list[float]:
        """Trace norm of each vec in a nonempty (k, dim) stack: the sum of its
        singular values, class by class, from one singular_values call; each
        class is summed as one flat row per vec, in row order whatever the
        memory layout of x, so that each row's sum is that of the vec alone."""
        x = np.ascontiguousarray(x)
        if self.commutative:   # ℂⁿ: the singular values are the moduli
            return np.abs(x).sum(axis=-1).tolist()
        return sum(s.reshape(len(x), -1).sum(axis=-1) for s in self.singular_values(x)).tolist()

    def traces(self, x) -> np.ndarray:
        """Trace of each vec in a (k, dim) stack: each size class's block
        traces summed per vec, the class sums added in class order; in row
        order whatever the memory layout of x, as in trace_norms."""
        x = np.ascontiguousarray(x)
        return sum(np.trace(b, axis1=-2, axis2=-1).sum(axis=-1) for _, _, b in self.blocks_by_size(x))

    @cached_property
    def block_order(self) -> np.ndarray:
        """Position of each block in size_classes, which list the blocks by size, then in block order."""
        order = np.argsort(np.argsort(self.block_dims, kind="stable"))
        order.flags.writeable = False
        return order

    def block_norms(self, x) -> np.ndarray:
        """Operator norm of every block of each vec in a stack, in block order."""
        if self.commutative:
            return np.abs(np.asarray(x))
        return np.concatenate([s[..., 0] for s in self.singular_values(x)], axis=-1)[..., self.block_order]

    def max_operator_norm(self, x) -> float:
        """Largest operator norm over a stack of vecs (0.0 if empty), as a full
        blockwise SVD gives it.  As ‖b‖_F/√n ≤ ‖b‖ ≤ ‖b‖_F, a size class of several
        n×n blocks sends to the SVD only those with ‖b‖_F ≥ L = max ‖b‖_F/√n; all
        nonzero blocks go if a bound is not finite or L < _SCREEN_FLOOR."""
        if self.commutative:
            with np.errstate(over="ignore", invalid="ignore"):
                top = np.abs(np.asarray(x)).max(initial=0.0)
            return math.nan if math.isnan(top) else float(top)
        classes = self.blocks_by_size(x)
        with np.errstate(over="ignore", invalid="ignore"):   # overflow or inf: no screen
            fro = [np.abs(b[..., 0, 0]) if n == 1 else np.linalg.norm(b, axis=(-2, -1)) if b.size > n * n else None
                   for n, _, b in classes]
        tops = [f.max(initial=0.0) / math.sqrt(n) for (n, _, _), f in zip(classes, fro) if f is not None]
        screened = all(map(math.isfinite, tops)) and (lower := max(tops, default=0.0)) >= _SCREEN_FLOOR
        norms = tops[:1] if classes[0][0] == 1 else []   # 1×1 moduli, the first class, are norms
        for (n, _, b), f in zip(classes, fro):
            if n > 1:   # the SVD of a block does not depend on the rest of the batch
                b = b[f >= lower * (1 - _SCREEN_MARGIN) if screened and f is not None else b.any(axis=(-2, -1))]
                norms += [np.linalg.svd(b, compute_uv=False).max()] if len(b) else []
        return math.nan if any(map(math.isnan, norms)) else float(max(norms, default=0.0))

    def min_eigenvalues(self, x) -> np.ndarray:
        """Least eigenvalue of the Hermitian part of each vec in a stack: the
        real part on 1×1 blocks and one batched eigvalsh per larger size."""
        return np.min([
            (b[..., 0, 0].real if n == 1 else np.linalg.eigvalsh((b + _adjoints(b)) / 2)[..., 0]).min(axis=-1)
            for n, _, b in self.blocks_by_size(x)
        ], axis=0)

    def svd(self, x) -> list:
        """Blockwise SVD of a vec: one (idx, w, s, vh) per size class with
        every block w·diag(s)·vh.  On 1×1 blocks s is the modulus, w the phase
        (1 at zero) and vh = 1; larger sizes take one batched SVD each."""
        out = []
        for n, idx, b in self.blocks_by_size(x):
            if n == 1:
                s = np.abs(b[..., 0])
                phase = np.divide(b, s[..., None], out=np.ones_like(b), where=s[..., None] > 0)
                out.append((idx, phase, s, np.ones_like(b)))
            else:
                out.append((idx, *np.linalg.svd(b)))
        return out

    def eigh(self, x) -> list:
        """Eigen-decomposition of the Hermitian part of every block of a vec:
        one (idx, w, v) per size class, eigenvalues w ascending.  On 1×1
        blocks w is the real part and v = 1; larger sizes take one batched
        eigh each."""
        return [(idx, b[..., 0].real, np.ones_like(b)) if n == 1
                else (idx, *np.linalg.eigh((b + _adjoints(b)) / 2))
                for n, idx, b in self.blocks_by_size(x)]

    def adjoint(self, x) -> np.ndarray:
        """Blockwise adjoints of a stack of vecs."""
        if self.commutative:
            return np.conj(np.asarray(x))
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
        blocks = [np.asarray(b, dtype=np.complex128) for b in blocks]
        for b, n in zip(blocks, self.block_dims, strict=True):
            if b.shape != (n, n):
                raise ValueError(f"block of shape {b.shape} does not match dimension {n}")
        return AlgebraElement(self, np.concatenate([b.ravel() for b in blocks]))

    def from_vec(self, vec: np.ndarray) -> "AlgebraElement":
        return AlgebraElement(self, vec)

    def zero(self) -> "AlgebraElement":
        return self.element(np.zeros((n, n)) for n in self.block_dims)

    def identity(self) -> "AlgebraElement":
        """The unit, built once per algebra (elements are immutable)."""
        return self._unit

    @cached_property
    def _unit(self) -> "AlgebraElement":
        return self.from_vec(self.coordinates[1] == self.coordinates[2])

    def basis_element(self, i: int) -> "AlgebraElement":
        vec = np.zeros(self.dim, dtype=np.complex128)
        vec[i] = 1.0
        return self.from_vec(vec)

    def basis(self) -> list["AlgebraElement"]:
        return [self.basis_element(i) for i in range(self.dim)]

    def random_state(self, rng: np.random.Generator) -> "Functional":
        """Random faithful-ish state: normalized sum of random rank-n Gram blocks."""
        blocks = []
        for n in self.block_dims:
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            blocks.append(g @ g.conj().T)
        total = sum(np.trace(b).real for b in blocks)
        return Functional(self, self.element(b / total for b in blocks))


def _adjoints(b: np.ndarray) -> np.ndarray:
    """Conjugate transposes of a stack of square matrices."""
    return np.conj(np.swapaxes(b, -1, -2))


@dataclass(eq=False)
class AlgebraElement:
    """An element of a MultiMatrixAlgebra, stored as its read-only vec."""

    algebra: MultiMatrixAlgebra
    vec: np.ndarray

    def __post_init__(self):
        vec = _as_complex(self.vec)
        if vec.shape != (self.algebra.dim,):
            raise ValueError(f"expected vector of length {self.algebra.dim}, got {vec.shape}")
        self.vec = vec

    @classmethod
    def _built(cls, algebra: MultiMatrixAlgebra, vec: np.ndarray) -> "AlgebraElement":
        """Element around the complex vec an operation has just built: made read-only, not copied."""
        if vec.dtype != np.complex128 or vec.shape != (algebra.dim,):
            return cls(algebra, vec)
        vec.flags.writeable = False
        out = cls.__new__(cls)
        out.algebra, out.vec = algebra, vec
        return out

    @cached_property
    def blocks(self) -> tuple:
        """The per-block (n, n) matrices, as read-only views of vec."""
        return tuple(self.algebra.split(self.vec))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement._built(self.algebra, self.vec + other.vec)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement._built(self.algebra, self.vec - other.vec)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._built(self.algebra, -self.vec)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check(other)
            return AlgebraElement._built(self.algebra, self.algebra.multiply(self.vec, other.vec))
        return AlgebraElement._built(self.algebra, other * self.vec)

    __rmul__ = __mul__

    def _check(self, other: "AlgebraElement"):
        if self.algebra != other.algebra:
            raise ValueError("elements live in different algebras")

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement._built(self.algebra, self.algebra.adjoint(self.vec))

    @property
    def trace(self) -> complex:
        return complex(self.algebra.traces(self.vec[None])[0])

    @property
    def operator_norm(self) -> float:
        return self.algebra.max_operator_norm(self.vec)

    @cached_property
    def spectrum(self) -> list:
        """MultiMatrixAlgebra.eigh of the vec, read by support and Functional.state_defects;
        taken once, alone or in the stack of _keep_state_defects."""
        return self.algebra.eigh(self.vec)

    @cached_property
    def centrality(self) -> tuple[float, np.ndarray]:
        """The numbers is_central compares, for a projection p, from one
        block_norms call: the projection defect max(‖p − p*‖, ‖p² − p‖) and
        the block norms of p and p − 1 (rows 0, 1); taken once."""
        alg, v = self.algebra, self.vec
        norms = alg.block_norms([v - alg.adjoint(v), alg.multiply(v, v) - v, v, v - alg.identity().vec])
        return float(norms[:2].max()), norms[2:]

    @cached_property
    def support(self) -> "AlgebraElement":
        """Support projection of a positive element, per block, keeping the
        eigenvalues above RANK_CUTOFF times the largest positive one; taken once."""
        alg = self.algebra
        top = max(0.0, max(w.max() for _, w, _ in self.spectrum))
        if alg.commutative:   # ℂⁿ: each 1×1 product v·[kept]·v* with v = 1 is the flag, imaginary part +0
            (_, w, _), = self.spectrum
            return AlgebraElement._built(alg, above_cutoff(w, top).astype(np.complex128).ravel())
        out = np.empty(alg.dim, dtype=np.complex128)
        for idx, w, v in self.spectrum:
            out[idx] = ((v * above_cutoff(w, top)[..., None, :]) @ _adjoints(v)).reshape(idx.shape)
        return AlgebraElement._built(alg, out)

    def __repr__(self):
        return f"AlgebraElement(blocks={self.algebra.block_dims}, norm={self.operator_norm:.4g})"


@dataclass(eq=False)
class Functional:
    """Element of the dual space, ω(x) = Tr(density · x) with Tr the sum of
    unnormalized block traces."""

    algebra: MultiMatrixAlgebra
    density: AlgebraElement
    _cohort = None   # the _Cohort this functional was made in, if any: not a field

    def __post_init__(self):
        if self.density.algebra != self.algebra:
            raise ValueError("density lives in a different algebra")

    @classmethod
    def from_covector(cls, algebra: MultiMatrixAlgebra, cov: np.ndarray) -> "Functional":
        """Functional with values cov[i] on the matrix-unit basis."""
        cov = np.asarray(cov, dtype=np.complex128)
        if cov.shape != (algebra.dim,):
            raise ValueError(f"expected vector of length {algebra.dim}, got {cov.shape}")
        return cls(algebra, AlgebraElement._built(algebra, cov[algebra.transpose_perm]))

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

    @cached_property
    def norm(self) -> float:
        """The dual norm ‖ω‖, the trace norm of the density; taken once, by _keep_norms."""
        _take(_keep_norms, [self], "norm")
        return self.__dict__["norm"]

    @cached_property
    def polar(self) -> "PolarParts":
        """The polar parts of polar_decompose; taken once, by _keep_polars."""
        _take(_keep_polars, [self], "polar")
        if "polar" not in self.__dict__:
            raise ValueError("polar decomposition of the zero functional")
        return self.__dict__["polar"]

    def __add__(self, other: "Functional") -> "Functional":
        return Functional(self.algebra, self.density + other.density)

    def __sub__(self, other: "Functional") -> "Functional":
        return Functional(self.algebra, self.density - other.density)

    def __neg__(self) -> "Functional":
        return Functional(self.algebra, -self.density)

    def __mul__(self, scalar) -> "Functional":
        return Functional(self.algebra, scalar * self.density)

    __rmul__ = __mul__

    @cached_property
    def state_defects(self) -> tuple[float, float]:
        """(max(‖d − d*‖, max(0, −λ_min)), |Tr d − 1|) for the density d, λ_min
        read off d.spectrum: both vanish exactly on the states; taken once, by
        _keep_state_defects."""
        _take(_keep_state_defects, [self], "state_defects")
        return self.__dict__["state_defects"]

    def is_state(self, tol: float = STATE_TOL) -> bool:
        return all(defect <= tol for defect in self.state_defects)

    def conjugate(self) -> "Functional":
        """The functional a ↦ conj(ω(a*)); its density is density*."""
        return Functional(self.algebra, self.density.adjoint())

    def __repr__(self):
        return f"Functional(blocks={self.algebra.block_dims}, norm={self.norm:.4g})"


class _Cohort:
    """Functionals made together, each held by weak reference, so that a
    member its caller dropped is freed and skipped.  The first request for a
    fact of any member takes that fact, in one stacked pass, for every live
    member that lacks it (_take); each value is bit for bit the one the
    member's stack of one gives.  Formed by the enumerators and by
    _keep_polars for the absolute values it makes."""

    __slots__ = ("members", "asked")

    def __init__(self, functionals):
        self.members = [weakref.ref(f) for f in functionals]
        self.asked = set()
        for f in functionals:
            f._cohort = self

    def first(self, fact) -> list:
        """The live members on the cohort's first request for fact, [] after,
        so that a cohort is walked once per fact.  Threads that race here
        can only measure a fact twice, with the same bits."""
        if fact in self.asked:
            return []
        self.asked.add(fact)
        return [f for ref in self.members if (f := ref()) is not None]


def _take(keep, functionals, fact, lacking=None):
    """keep, which measures a fact of every functional of a stack and keeps
    it, over the functionals and, on each cohort's first request for fact,
    their siblings that lack it: lacking(sibling), by default that the
    cached property named fact is not yet taken.  If that stack raises, keep
    runs over the functionals alone: a sibling's error is raised only when
    that sibling is asked."""
    if all(f._cohort is None for f in functionals):
        keep(functionals)
        return
    lacking = lacking or (lambda f: fact not in f.__dict__)
    stack = dict.fromkeys(functionals)
    for f in functionals:
        if f._cohort is not None:
            stack.update(dict.fromkeys(s for s in f._cohort.first(fact) if s not in stack and lacking(s)))
    if len(stack) > len(functionals):
        try:
            keep(list(stack))
            return
        except Exception:   # a sibling's error or warning-as-error: the askers alone raise theirs
            pass
    keep(functionals)


def _rows(vecs) -> np.ndarray:
    """The vecs of a stack as the rows of one array, a read-only view for a stack of one."""
    return vecs[0][None] if len(vecs) == 1 else np.array(vecs)


def _keep_norms(functionals):
    """Functional.norm of each functional on one algebra, from one stacked trace norm."""
    for f, norm in zip(functionals, functionals[0].algebra.trace_norms(_rows([f.density.vec for f in functionals]))):
        f.norm = norm


def _keep_polars(functionals):
    """Functional.polar of each nonzero functional on one algebra, from one
    stacked blockwise SVD keeping, per functional, the singular values above
    RANK_CUTOFF times its largest; the absolute values made form a cohort.
    A zero functional keeps none."""
    alg, k = functionals[0].algebra, len(functionals)
    factors = alg.svd(_rows([f.density.vec for f in functionals]))
    if alg.commutative:   # ℂⁿ: the loop below with vh = 1, its products by 1 and 0 taken elementwise
        (_, w, s, _), = factors
        smax = s.reshape(k, -1).max(axis=-1)
        kept = np.where(above_cutoff(s, smax[:, None, None]), s, 0.0)[..., None]
        w = np.where(kept > 0, w, 0)
        # + 0.0 and + 0j give zeros the sign +0, as the 1×1 products do
        u, p, q = ((w + 0.0).reshape(k, -1), (kept + 0j).reshape(k, -1), (w * kept @ _adjoints(w)).reshape(k, -1))
    else:
        u, p, q = (np.empty((k, alg.dim), dtype=np.complex128) for _ in range(3))
        smax = []
        for m, (um, pm, qm) in enumerate(zip(u, p, q)):   # per functional, each cut at its own rank
            factors_m = [(idx, w[m], s[m], vh[m]) for idx, w, s, vh in factors]
            smax.append(top := max(s.max() for _, _, s, _ in factors_m))
            for idx, w, s, vh in factors_m:
                keep = above_cutoff(s, top)
                r = keep.sum(axis=-1).max()   # the largest rank in the size class
                w, vh, kept = w[..., :r], vh[..., :r, :], np.where(keep, s, 0.0)[..., None, :r]
                um[idx] = ((w * (kept > 0)) @ vh).reshape(idx.shape)
                pm[idx] = ((_adjoints(vh) * kept) @ vh).reshape(idx.shape)    # (d* d)^{1/2}
                qm[idx] = ((w * kept) @ _adjoints(w)).reshape(idx.shape)      # (d d*)^{1/2}
    made = []
    for f, top, um, pm, qm in zip(functionals, smax, u, p, q):
        if top != 0.0:
            f.polar = parts = _polar_parts(alg, um, pm, qm)
            made += [parts.abs_r, parts.abs_l]
    _Cohort(made)


def _keep_state_defects(functionals):
    """Functional.state_defects of each functional on one algebra, from one
    stacked eigh of the densities whose spectrum is not yet taken (each kept
    on its density), one stacked block_norms of d − d* and one stacked trace."""
    alg, x = functionals[0].algebra, _rows([f.density.vec for f in functionals])
    skew = x - alg.adjoint(x)
    with np.errstate(over="ignore", invalid="ignore"):   # as in max_operator_norm: an overflow or inf is no warning
        herm = alg.block_norms(skew).max(axis=-1, initial=0.0)
    dens = [f.density for f in functionals if "spectrum" not in f.density.__dict__]
    if dens:
        spectra = alg.eigh(_rows([d.vec for d in dens]))
        for m, d in enumerate(dens):
            d.spectrum = [(idx, w[m], v[m]) for idx, w, v in spectra]
    for f, h, t in zip(functionals, herm.tolist(), alg.traces(x).tolist()):
        low = min(w.min() for _, w, _ in f.density.spectrum)
        f.state_defects = max(h, max(0.0, -float(low))), abs(t - 1.0)


def _polar_parts(alg: MultiMatrixAlgebra, u, p, q) -> "PolarParts":
    """PolarParts around the vecs of u, |d| and |d*| just built."""
    return PolarParts(u=AlgebraElement._built(alg, u), abs_r=Functional(alg, AlgebraElement._built(alg, p)),
                      abs_l=Functional(alg, AlgebraElement._built(alg, q)))


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


def polar_decompose(omega: Functional) -> PolarParts:
    """Per-block polar decomposition of the density, d = u·|d|, from one
    blockwise SVD keeping singular values above RANK_CUTOFF times the largest
    across blocks: ω.polar, taken once.  Raises on the zero functional."""
    return omega.polar


def is_central(p: AlgebraElement, tol: float = STATE_TOL) -> bool:
    """True iff the projection p is a sum of full block identities, read
    off p.centrality."""
    defect, norms = p.centrality
    if not defect <= tol:
        raise ValueError("is_central expects a projection")
    return bool((norms <= tol).any(axis=0).all())


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
        out[self.positions] = np.outer(np.asarray(u, dtype=np.complex128),
                                       np.asarray(v, dtype=np.complex128)).ravel()
        return out

    @cached_property
    def flip(self) -> np.ndarray:
        """Index array with (flip of v)[pos(J,I)] = v[pos(I,J)] for A = B."""
        if self.left != self.right:
            raise ValueError("flip is only defined on square tensor products")
        pos = self.positions.reshape(self.left.dim, self.left.dim)
        out = np.empty(self.algebra.dim, dtype=np.intp)
        out[pos.T] = pos
        out.flags.writeable = False
        return out


@lru_cache(maxsize=None)
def tensor_algebra(a: MultiMatrixAlgebra, b: MultiMatrixAlgebra) -> TensorSplit:
    """Tensor product algebra: one block of size n_i·m_j per block pair, in
    lexicographic pair order, with Kronecker-product coordinates."""
    dims = np.multiply.outer(a.block_dims, b.block_dims).ravel()
    prod = MultiMatrixAlgebra(tuple(dims))
    (ka, ra, ca), (kb, rb, cb) = a.coordinates, b.coordinates
    pair = np.add.outer(ka * len(b.block_dims), kb)
    m = np.array(b.block_dims)[kb]
    # e^i_rt ⊗ e^j_su is the unit at row r·m_j + s, column t·m_j + u of block (i, j)
    pos = (np.array(prod.offsets)[pair] + dims[pair] * (np.multiply.outer(ra, m) + rb)
           + np.multiply.outer(ca, m) + cb).ravel()
    pos.flags.writeable = False
    return TensorSplit(left=a, right=b, algebra=prod, positions=pos)

