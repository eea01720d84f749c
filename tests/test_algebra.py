"""Element arithmetic, trace-pairing functionals, polar decomposition, support
projections and null spaces, centrality, tensor products."""

import ast
import math
import pathlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quidem
from quidem.algebra import (
    RANK_CUTOFF,
    Functional,
    MultiMatrixAlgebra,
    act_left,
    act_right,
    is_central,
    polar_decompose,
    tensor_algebra,
)
from quidem.catalogue import builtin

from conftest import random_element, random_functional
from test_oracles import _ref_tensor_element, _ref_tensor_functional, _ref_transpose_perm

ALGEBRAS = [
    MultiMatrixAlgebra((1, 1)),
    MultiMatrixAlgebra((2,)),
    MultiMatrixAlgebra((1, 2)),
    MultiMatrixAlgebra((1, 1, 1, 1)),
    MultiMatrixAlgebra((1, 1, 1, 1, 2)),
    MultiMatrixAlgebra((2, 3)),
]


def _m2():
    return MultiMatrixAlgebra((2,))


def test_block_dims_validation():
    with pytest.raises(ValueError):
        MultiMatrixAlgebra(())
    with pytest.raises(ValueError):
        MultiMatrixAlgebra((0, 2))


def test_identity_multiplication():
    alg = MultiMatrixAlgebra((1, 2))
    rng = np.random.default_rng(0)
    a = random_element(alg, rng)
    assert (alg.identity() * a - a).operator_norm == 0.0


def test_orthogonal_idempotents_in_cz2():
    alg = MultiMatrixAlgebra((1, 1))
    p = alg.from_vec(np.array([1.0, 0.0]))
    q = alg.from_vec(np.array([0.0, 1.0]))
    assert (p * q).operator_norm == 0.0


def test_matrix_units_multiply():
    alg = _m2()
    e12 = alg.from_vec(np.array([0, 1, 0, 0], dtype=complex))
    e21 = alg.from_vec(np.array([0, 0, 1, 0], dtype=complex))
    e11 = alg.from_vec(np.array([1, 0, 0, 0], dtype=complex))
    assert ((e12 * e21) - e11).operator_norm == 0.0
    assert (e12.adjoint() - e21).operator_norm == 0.0
    assert (alg.identity().adjoint() - alg.identity()).operator_norm == 0.0
    assert ((1j * e11).adjoint() - (-1j) * e11).operator_norm == 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(0, len(ALGEBRAS) - 1))
def test_adjoint_antihomomorphism(seed, which):
    alg = ALGEBRAS[which]
    rng = np.random.default_rng(seed)
    a, b = random_element(alg, rng), random_element(alg, rng)
    assert ((a * b).adjoint() - b.adjoint() * a.adjoint()).operator_norm < 1e-12


def test_caller_input_is_copied_and_results_are_read_only(monkeypatch):
    """from_vec and element copy the caller's arrays; + − * adjoint hand the
    arrays they have just built to the element without a copy, read-only."""
    import quidem.algebra

    alg = MultiMatrixAlgebra((1, 2))
    vec = np.arange(alg.dim, dtype=np.complex128)
    block = np.eye(2)
    x, y = alg.from_vec(vec), alg.element([np.ones((1, 1)), block])
    vec[0], block[0, 0] = 9.0, 9.0
    assert x.vec[0] == 0.0 and y.vec[1] == 1.0
    copies = []
    as_complex = quidem.algebra._as_complex
    monkeypatch.setattr(quidem.algebra, "_as_complex", lambda m: copies.append(m) or as_complex(m))
    results = [x + y, x - y, -x, x * y, 2.0 * x, x * 2j, x.adjoint()]
    assert not copies
    want = [v.copy() for v in (x.vec + y.vec, x.vec - y.vec, -x.vec, alg.multiply(x.vec, y.vec),
                                    2.0 * x.vec, 2j * x.vec, alg.adjoint(x.vec))]
    for z, w in zip(results, want):
        assert not z.vec.flags.writeable and z.vec.dtype == np.complex128
        assert np.array_equal(z.vec, w)
        with pytest.raises(ValueError):
            z.vec[0] = 1.0
    assert not x.vec.flags.writeable and not y.vec.flags.writeable


def test_zero_functional_norm():
    alg = MultiMatrixAlgebra((1, 1))
    assert Functional.zero(alg).norm == 0.0


def test_trace_norm_of_diagonal_density():
    alg = MultiMatrixAlgebra((1, 1, 1, 1))
    mu = Functional(alg, alg.from_vec(np.array([0.5, 0, -0.5, 0])))
    assert mu.norm == pytest.approx(1.0)


def _norm_attainer(omega):
    """Unit-norm element x with ω(x) = ‖ω‖: x = V W* per block, from the
    singular value decomposition d = W Σ V* of the density."""
    alg = omega.algebra
    out = np.empty(alg.dim, dtype=np.complex128)
    for idx, w, _, vh in alg.svd(omega.density.vec):
        out[idx] = np.conj(np.swapaxes(w @ vh, -1, -2)).reshape(idx.shape)
    return alg.from_vec(out)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(0, len(ALGEBRAS) - 1))
def test_dual_norm_consistency(seed, which):
    """The trace norm agrees with the supremum of |ω(x)| over unit-norm x:
    sampled elements never exceed it and an explicit attainer reaches it."""
    alg = ALGEBRAS[which]
    rng = np.random.default_rng(seed)
    omega = random_functional(alg, rng)
    norm = omega.norm
    best = abs(omega(_norm_attainer(omega)))
    for _ in range(20):
        x = random_element(alg, rng)
        x = (1.0 / x.operator_norm) * x
        value = abs(omega(x))
        assert value <= norm + 1e-9
        best = max(best, value)
    assert best == pytest.approx(norm, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(0, len(ALGEBRAS) - 1))
def test_polar_roundtrip(seed, which):
    alg = ALGEBRAS[which]
    rng = np.random.default_rng(seed)
    omega = random_functional(alg, rng)
    parts = polar_decompose(omega)
    u = parts.u
    assert (u * u.adjoint() * u - u).operator_norm < 1e-9
    s_r = parts.abs_r.density.support
    s_l = parts.abs_l.density.support
    assert (u.adjoint() * u - s_r).operator_norm < 1e-9
    assert (u * u.adjoint() - s_l).operator_norm < 1e-9
    assert (act_left(u, parts.abs_r) - omega).norm < 1e-9
    assert (act_right(parts.abs_l, u) - omega).norm < 1e-9


def test_polar_of_positive_functional_is_trivial():
    alg = MultiMatrixAlgebra((1, 2))
    rng = np.random.default_rng(3)
    omega = alg.random_state(rng)
    parts = polar_decompose(omega)
    assert (parts.abs_r - omega).norm < 1e-12
    assert (parts.abs_l - omega).norm < 1e-12
    assert (parts.u - omega.density.support).operator_norm < 1e-10


def test_polar_of_sign_functional():
    alg = MultiMatrixAlgebra((1, 1, 1, 1))
    mu = Functional(alg, alg.from_vec(np.array([0.5, 0, -0.5, 0])))
    parts = polar_decompose(mu)
    assert np.allclose(parts.u.vec, [1, 0, -1, 0])
    assert np.allclose(parts.abs_r.density.vec, [0.5, 0, 0.5, 0])


def test_polar_of_offdiagonal_rank_one():
    alg = _m2()
    omega = Functional(alg, alg.from_vec(np.array([0, 1, 0, 0], dtype=complex)))
    parts = polar_decompose(omega)
    # density e12 = u |d| with u = e12, |d| = e22
    assert np.allclose(parts.u.vec, [0, 1, 0, 0])
    assert np.allclose(parts.abs_r.density.vec, [0, 0, 0, 1])
    assert np.allclose(parts.abs_l.density.vec, [1, 0, 0, 0])


def test_polar_of_zero_raises():
    """On every call: a failed decomposition is not cached."""
    zero = Functional.zero(_m2())
    for _ in range(2):
        with pytest.raises(ValueError):
            polar_decompose(zero)


def test_polar_parts_are_taken_once_per_functional(monkeypatch):
    alg = _m2()
    omega = random_functional(alg, np.random.default_rng(3))
    calls = []
    svd = MultiMatrixAlgebra.svd
    monkeypatch.setattr(MultiMatrixAlgebra, "svd", lambda self, x: calls.append(1) or svd(self, x))
    parts = polar_decompose(omega)
    assert polar_decompose(omega) is parts is omega.polar
    assert len(calls) == 1


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(0, len(ALGEBRAS) - 1))
def test_cauchy_schwarz_for_states(seed, which):
    alg = ALGEBRAS[which]
    rng = np.random.default_rng(seed)
    sigma = alg.random_state(rng)
    a, b = random_element(alg, rng), random_element(alg, rng)
    lhs = abs(sigma(a.adjoint() * b)) ** 2
    rhs = sigma(a.adjoint() * a).real * sigma(b.adjoint() * b).real
    assert lhs <= rhs + 1e-9 * max(1.0, rhs)


def test_null_space_of_faithful_state_is_zero():
    """N_σ = {a : σ(a*a) = 0} is A(1 − s), s the support of σ's density: a
    faithful state has s = 1."""
    alg = MultiMatrixAlgebra((1, 2))
    rng = np.random.default_rng(5)
    assert np.allclose(alg.random_state(rng).density.support.vec, alg.identity().vec)


def test_null_space_point_mass():
    alg = MultiMatrixAlgebra((1, 1))
    delta0 = Functional.from_covector(alg, np.array([1.0, 0.0]))
    assert np.allclose((alg.identity() - delta0.density.support).vec, [0, 1])


def test_null_space_half_support():
    alg = MultiMatrixAlgebra((1, 1, 1, 1))
    sigma = Functional.from_covector(alg, np.array([0.5, 0, 0.5, 0]))
    assert np.allclose((alg.identity() - sigma.density.support).vec, [0, 1, 0, 1])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(0, len(ALGEBRAS) - 1))
def test_null_space_is_left_ideal(seed, which):
    """σ vanishes on y*y for y = x·a(1 − s): A(1 − s) lies in N_σ and is a
    left ideal."""
    alg = ALGEBRAS[which]
    rng = np.random.default_rng(seed)
    # rank-deficient positive density: zero out the last block
    blocks = [b for b in alg.random_state(rng).density.blocks]
    blocks[-1] = np.zeros_like(blocks[-1])
    total = sum(np.trace(b).real for b in blocks)
    if total <= 0:
        return
    sigma = Functional(alg, alg.element(b / total for b in blocks))
    null = random_element(alg, rng) * (alg.identity() - sigma.density.support)
    for y in (null, random_element(alg, rng) * null):
        assert abs(sigma(y.adjoint() * y)) < 1e-9


def test_is_central():
    alg = MultiMatrixAlgebra((2, 2))
    assert is_central(alg.identity())
    one_block = alg.element([np.eye(2), np.zeros((2, 2))])
    assert is_central(one_block)
    e11 = alg.element([np.diag([1.0, 0.0]), np.zeros((2, 2))])
    assert not is_central(e11)
    with pytest.raises(ValueError):
        is_central(alg.element([np.diag([1.0, 0.5]), np.zeros((2, 2))]))


def test_tensor_block_structure():
    a = MultiMatrixAlgebra((1, 1))
    ts = tensor_algebra(a, a)
    assert ts.algebra.block_dims == (1, 1, 1, 1)
    b = MultiMatrixAlgebra((2,))
    tsb = tensor_algebra(b, b)
    assert tsb.algebra.block_dims == (4,)


def test_tensor_functional_values():
    a = MultiMatrixAlgebra((1, 2))
    ts = tensor_algebra(a, a)
    rng = np.random.default_rng(7)
    f, g = random_functional(a, rng), random_functional(a, rng)
    x, y = random_element(a, rng), random_element(a, rng)
    fg = _ref_tensor_functional(ts, f, g)
    assert fg(_ref_tensor_element(ts, x, y)) == pytest.approx(f(x) * g(y), abs=1e-10)


def test_covector_of_the_wrong_shape_is_refused_before_the_gather():
    """A covector too long, too short or two-dimensional is refused by the
    shape it has, as AlgebraElement refuses a vec, and is not cut or
    indexed out of range."""
    alg = MultiMatrixAlgebra((1, 2))
    for shape in ((9,), (3,), (5, 2)):
        with pytest.raises(ValueError, match=re.escape(f"expected vector of length 5, got {shape}")):
            Functional.from_covector(alg, np.ones(shape))


def test_tensor_element_multiplication_is_legwise():
    a = MultiMatrixAlgebra((1, 2))
    ts = tensor_algebra(a, a)
    rng = np.random.default_rng(11)
    x, y, z, w = (random_element(a, rng) for _ in range(4))
    lhs = _ref_tensor_element(ts, x, y) * _ref_tensor_element(ts, z, w)
    rhs = _ref_tensor_element(ts, x * z, y * w)
    assert (lhs - rhs).operator_norm < 1e-12


def test_covector_density_roundtrip():
    alg = MultiMatrixAlgebra((1, 2))
    rng = np.random.default_rng(21)
    cov = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    f = Functional.from_covector(alg, cov)
    assert np.allclose(f.covector, cov)
    for i in range(alg.dim):
        assert f(alg.basis_element(i)) == pytest.approx(complex(cov[i]), abs=1e-12)


def test_block_shape_mismatch_rejected():
    alg = MultiMatrixAlgebra((1, 2))
    with pytest.raises(ValueError):
        alg.element([np.eye(1), np.eye(3)])
    with pytest.raises(ValueError):
        alg.from_vec(np.zeros(4))
    other = MultiMatrixAlgebra((2, 1))
    with pytest.raises(ValueError):
        alg.identity() * other.identity()


def test_counit_of_catalogue_group_has_norm_one(cz4, kp):
    assert cz4.counit.norm == pytest.approx(1.0)
    assert kp.counit.norm == pytest.approx(1.0, abs=1e-12)


def test_tensor_of_counits_on_unit(cz2):
    ts = tensor_algebra(cz2.algebra, cz2.algebra)
    pair = _ref_tensor_functional(ts, cz2.counit, cz2.counit)
    unit = _ref_tensor_element(ts, cz2.algebra.identity(), cz2.algebra.identity())
    assert pair(unit) == pytest.approx(1.0)


def test_actions_match_definitions():
    alg = MultiMatrixAlgebra((1, 2))
    rng = np.random.default_rng(13)
    omega = random_functional(alg, rng)
    x, y = random_element(alg, rng), random_element(alg, rng)
    assert act_left(x, omega)(y) == pytest.approx(omega(y * x), abs=1e-10)
    assert act_right(omega, x)(y) == pytest.approx(omega(x * y), abs=1e-10)


def _random_stack(alg, rng, shape):
    return rng.standard_normal(shape + (alg.dim,)) + 1j * rng.standard_normal(shape + (alg.dim,))


def _with_singular_values(rng, svals):
    """Block with the given singular values between random unitaries."""
    n = len(svals)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return u @ np.diag(svals) @ v.conj().T


def _polar_per_block(blocks, cutoff):
    svals = [np.linalg.svd(b, compute_uv=False) for b in blocks]
    threshold = cutoff * max(s[0] for s in svals)
    parts = []
    for b in blocks:
        w, s, vh = np.linalg.svd(b)
        r = int(np.sum(s > threshold))
        wr, sr, vhr = w[:, :r], s[:r], vh[:r, :]
        parts.append((wr @ vhr, vhr.conj().T @ np.diag(sr) @ vhr, wr @ np.diag(sr) @ wr.conj().T))
    return [np.concatenate([p[i].ravel() for p in parts]) for i in range(3)]


def _support_per_block(blocks, cutoff):
    herm = [(b + b.conj().T) / 2 for b in blocks]
    threshold = cutoff * max(0.0, max(np.linalg.eigvalsh(h)[-1] for h in herm))
    out = []
    for h in herm:
        w, v = np.linalg.eigh(h)
        keep = v[:, w > threshold]
        out.append((keep @ keep.conj().T).ravel())
    return np.concatenate(out)


def _per_block_products(alg, x, y):
    """Blockwise products of two stacks by one a @ b per block and stack entry."""
    x, y = np.broadcast_arrays(x, y)
    out = np.empty(x.shape, dtype=np.result_type(x, y))
    for idx in np.ndindex(x.shape[:-1]):
        out[idx] = np.concatenate([(a @ b).ravel() for a, b in zip(alg.split(x[idx]), alg.split(y[idx]))])
    return out


# the algebras of the tro benchmark pool and C*(S4), and the tensor squares
# of KP and C*(S4)
KERNEL_ALGEBRAS = [(spec, False) for spec in ("cstar:dn:4", "kp", "cstar:dn:5", "czn:16", "cstar:sn:4")] + [
    (spec, True) for spec in ("kp", "cstar:sn:4")]


@pytest.mark.parametrize("spec, square", KERNEL_ALGEBRAS,
                         ids=[spec + ("-tensor-square" if square else "") for spec, square in KERNEL_ALGEBRAS])
def test_multiply_matches_per_block_products(spec, square):
    """multiply against a @ b per block: complex and real × complex stacks,
    broadcast shapes and an empty stack.  On all-1×1 algebras it is bit for
    bit x * y, and its result never shares memory with an input."""
    G = builtin(spec)
    alg = G.ts.algebra if square else G.algebra
    rng = np.random.default_rng(alg.dim)
    x, y = _random_stack(alg, rng, (3, 1)), _random_stack(alg, rng, (4,))
    real = rng.standard_normal((3, 1, alg.dim))
    for a, b in ((x, y), (real, y), (y, real), (x[0, 0], y), (x, y[:0])):
        got = alg.multiply(a, b)
        want = _per_block_products(alg, a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.abs(got - want).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(want).max(initial=0.0))
        assert not np.shares_memory(got, a) and not np.shares_memory(got, b)
        if max(alg.block_dims) == 1:
            assert np.array_equal(got, a * b)


def test_kernel_matches_per_block_loops():
    rng = np.random.default_rng(7)
    alg = MultiMatrixAlgebra((1, 3, 2, 1, 3, 4, 2))
    x, y = _random_stack(alg, rng, (5, 3)), _random_stack(alg, rng, (5, 3))
    block_norms = alg.block_norms(x)
    min_eigs = alg.min_eigenvalues(x)
    prods = alg.multiply(x, y)
    adjoints = alg.adjoint(x)
    for idx in np.ndindex(5, 3):
        blocks_x, blocks_y = alg.split(x[idx]), alg.split(y[idx])
        want = [np.linalg.norm(b, 2) for b in blocks_x]
        assert np.abs(block_norms[idx] - want).max() <= 1e-12 * max(want)
        assert abs(alg.max_operator_norm(x[idx]) - max(want)) <= 1e-12 * max(want)
        want_eig = min(np.linalg.eigvalsh((b + b.conj().T) / 2).min() for b in blocks_x)
        assert abs(min_eigs[idx] - want_eig) <= 1e-12 * max(want)
        want_prod = np.concatenate([(a @ b).ravel() for a, b in zip(blocks_x, blocks_y)])
        assert np.abs(prods[idx] - want_prod).max() <= 1e-12
        want_adj = np.concatenate([b.conj().T.ravel() for b in blocks_x])
        assert np.array_equal(adjoints[idx], want_adj)
        e = alg.from_vec(x[idx])
        want_trace_norm = sum(np.linalg.svd(b, compute_uv=False).sum() for b in blocks_x)
        assert abs(alg.trace_norms(x[idx][None])[0] - want_trace_norm) <= 1e-12 * want_trace_norm
        assert abs(e.trace - sum(np.trace(b) for b in blocks_x)) <= 1e-12 * want_trace_norm
        want_trace_defect = abs(sum(np.trace(b) for b in blocks_x) - 1.0)   # the trace row of state_defects
        assert abs(Functional(alg, e).state_defects[1] - want_trace_defect) <= 1e-12 * (want_trace_norm + 1.0)
    # broadcasting: one element against a stack
    one_by_many = alg.multiply(x[0, 0], y[:, 0])
    assert one_by_many.shape == (5, alg.dim)
    for m in range(5):
        assert np.array_equal(one_by_many[m], alg.multiply(x[0, 0], y[m, 0]))
    # the element property goes through the same kernel
    a = alg.from_vec(x[2, 1])
    assert a.operator_norm == alg.max_operator_norm(x[2, 1])
    assert alg.max_operator_norm(x) == max(alg.max_operator_norm(v) for v in x.reshape(-1, alg.dim))
    assert alg.max_operator_norm(np.zeros((0, alg.dim))) == 0.0
    # the vec is the one copy of the data; blocks are read-only views of it
    assert not a.vec.flags.writeable and not np.shares_memory(a.vec, x)
    assert len(a.blocks) == len(alg.block_dims)
    for b, want in zip(a.blocks, alg.split(x[2, 1])):
        assert not b.flags.writeable and np.shares_memory(b, a.vec)
        assert np.array_equal(b, want)

    # Rank-deficient density.  The largest singular value is 2, so the cutoff
    # keeps singular values above 2e-10 in every block: 3e-10 and 2.5e-10
    # stay, 1.5e-10 and 1e-10 go, and blocks 2 and 3 drop out entirely,
    # though each lies above a cutoff relative to its own largest value.
    svals = [[2.0], [1.0, 3e-10, 1e-10], [1.5e-10, 0.0], [1e-10], [0.5, 0.4, 0.3],
             [1.5, 1e-3, 2.5e-10, 1.5e-10], [3e-10, 1e-11]]
    density = alg.element(_with_singular_values(rng, s) for s in svals)
    ranks = [int(np.sum(np.array(s) > 2e-10)) for s in svals]
    assert ranks == [1, 2, 0, 0, 3, 3, 1]
    parts = polar_decompose(Functional(alg, density))
    want_u, want_p, want_q = _polar_per_block(density.blocks, RANK_CUTOFF)
    for got, want in ((parts.u, want_u), (parts.abs_r.density, want_p), (parts.abs_l.density, want_q)):
        assert np.abs(got.vec - want).max() <= 1e-12
    assert [round(np.trace(b).real) for b in (parts.u.adjoint() * parts.u).blocks] == ranks
    for positive in (parts.abs_r.density, parts.abs_l.density):
        support = positive.support
        assert np.abs(support.vec - _support_per_block(positive.blocks, RANK_CUTOFF)).max() <= 1e-12
        assert [round(np.trace(b).real) for b in support.blocks] == ranks


def _per_class_twin(alg):
    """The same algebra with its kernel held to the per-class route, even
    when every block is 1×1."""
    twin = MultiMatrixAlgebra(alg.block_dims)
    twin.__dict__["commutative"] = False
    return twin


def _bits(value):
    """The bytes, dtype and shape of every array in a (nested) kernel result."""
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    a = np.asarray(value)
    return a.dtype, a.shape, np.ascontiguousarray(a).tobytes()


def _recorded(fn, *args):
    """fn(*args) with the messages of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [str(w.message) for w in caught]


_SPECIAL = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, complex(np.inf, 1.0), complex(-1.0, -np.inf),
                     complex(np.nan, 2.0), complex(0.0, -0.0), 3.0 - 4.0j, 1e-300j, -2.0])


def _special_stack(alg, n):
    """A (4, 3, n) stack of vecs of ℂⁿ: random entries, with rows of special
    values (zeros of either sign, NaN, ±inf), a zero row and a half-zero row."""
    x = _random_stack(alg, np.random.default_rng(n), (4, 3))
    x[0, 0] = np.resize(_SPECIAL, n)
    x[1, 2] = np.resize(_SPECIAL[::-1], n)
    x[2, 0] = 0.0
    x[3, 1, ::2] = 0.0
    return x


@pytest.mark.parametrize("n", [1, 2, 6, 12, 24])
def test_kernel_matches_per_block_loops_on_all_1x1_algebras(n):
    """On ℂⁿ multiply, adjoint, block_norms, max_operator_norm, trace_norms,
    the state defects, the polar parts and the support take their
    elementwise forms, and the other steps the 1×1 branch of the per-class
    route: bit for bit,
    and with the same warnings, what that route gives, on stacked leading
    axes, empty stacks, real stacks, zero entries of either sign (svd's
    phase is 1 there), NaN and ±inf; and bit for bit a loop over the 1×1
    blocks."""
    alg = MultiMatrixAlgebra((1,) * n)
    twin = _per_class_twin(alg)
    assert alg.commutative and not twin.commutative
    x = _special_stack(alg, n)
    stacks = [x, x[0, 0], x[1, 1], x[2, 0], x[:0], x[:, :0], x.real, np.zeros(n)]
    steps = ("blocks_by_size", "multiply", "singular_values", "block_norms", "max_operator_norm",
             "min_eigenvalues", "svd", "eigh", "adjoint")
    for v in stacks:
        for step in steps:
            args = (v, x[2, 2]) if step == "multiply" else (v,)
            got, got_warnings = _recorded(getattr(alg, step), *args)
            want, want_warnings = _recorded(getattr(twin, step), *args)
            assert _bits(got) == _bits(want), (step, v)
            assert got_warnings == want_warnings, (step, v)
    for v in (x[0], x[1], x[2], x[:, 1], x.real[3], x[0, :1], np.asfortranarray(x[1])):
        got, got_warnings = _recorded(alg.trace_norms, v)
        want, want_warnings = _recorded(twin.trace_norms, v)
        assert _bits(got) == _bits(want) and got_warnings == want_warnings, v
    # the element's and the functional's properties read the same kernel
    for v in (x[0, 0], x[1, 1], x[2, 0], x[1, 2], x[3, 1], np.full(n, complex(-0.0, -0.0))):
        got, got_warnings = _recorded(getattr, alg.from_vec(v), "operator_norm")
        want, want_warnings = _recorded(getattr, twin.from_vec(v), "operator_norm")
        assert _bits(got) == _bits(want) and got_warnings == want_warnings
        for prop in ("norm", "state_defects"):   # the trace norm; ‖d − d*‖, λ_min and the trace
            got, got_warnings = _recorded(getattr, Functional(alg, alg.from_vec(v)), prop)
            want, want_warnings = _recorded(getattr, Functional(twin, twin.from_vec(v)), prop)
            assert _bits(got) == _bits(want) and got_warnings == want_warnings, prop
    # polar parts and supports: finite densities, one with zero entries of
    # either sign and one below the rank cutoff, and densities with NaN or inf
    signed = np.resize([-0.0, complex(-0.0, 2.0), complex(-3.0, -0.0), complex(0.0, -0.0), 1e-12, -1.0j], n)
    for density in (x[1, 1], np.where(np.arange(n) % 2, 0.0, x[0, 2]), signed, x[0, 0], x[1, 2]):
        if not density.any():   # the zero functional has no polar parts
            continue
        got, got_warnings = _recorded(polar_decompose, Functional(alg, alg.from_vec(density)))
        want, want_warnings = _recorded(polar_decompose, Functional(twin, twin.from_vec(density)))
        assert _bits(got.u.vec) == _bits(want.u.vec) and got_warnings == want_warnings
        for part in ("abs_r", "abs_l"):
            a, b = getattr(got, part).density, getattr(want, part).density
            assert _bits(a.vec) == _bits(b.vec) and _bits(a.support.vec) == _bits(b.support.vec), part
        got, got_warnings = _recorded(getattr, alg.from_vec(density), "support")
        want, want_warnings = _recorded(getattr, twin.from_vec(density), "support")
        assert _bits(got.vec) == _bits(want.vec) and got_warnings == want_warnings
    # a loop over single blocks, each a one-entry array
    for v in (x[0, 0], x[1, 2], x[1, 1], x[2, 0], x.real[3, 1]):
        with np.errstate(all="ignore"):
            assert _bits(alg.block_norms(v)) == _bits(np.array([np.abs(v[i:i + 1])[0] for i in range(n)]))
            top = max((np.abs(v[i:i + 1])[0] for i in range(n)), key=lambda t: (np.isnan(t), t))
            norm = alg.max_operator_norm(v)
            assert math.isnan(norm) if np.isnan(top) else _bits(norm) == _bits(float(top))
            assert _bits(alg.adjoint(v)) == _bits(np.array([np.conj(v[i:i + 1])[0] for i in range(n)]))
            (idx, phase, svals, vh), = alg.svd(v)
            (_, w, vecs), = alg.eigh(v)
            for i in range(n):
                s = np.abs(v[i:i + 1])
                assert _bits(svals[i]) == _bits(s) and _bits(vh[i]) == _bits(np.ones((1, 1), v.dtype))
                want_phase = np.divide(v[i:i + 1], s) if s[0] > 0 else np.ones(1, v.dtype)
                assert _bits(phase[i]) == _bits(want_phase.reshape(1, 1))
                assert _bits(w[i]) == _bits(v[i:i + 1].real) and _bits(vecs[i]) == _bits(np.ones((1, 1), v.dtype))
                assert idx[i].tolist() == [i]


@pytest.mark.parametrize("n", [1, 2, 6, 12, 24])
def test_traces_on_all_1x1_algebras_are_the_elementwise_sums(n):
    """On ℂⁿ traces, which has no elementwise form of its own, gives bit for
    bit, and with the same warnings, the row sums of the contiguous stack
    that such a form took, and AlgebraElement.trace the sum of its vec, on
    the stacks of the kernel test: zeros of either sign, NaN, ±inf, real and
    Fortran-ordered stacks."""
    alg = MultiMatrixAlgebra((1,) * n)
    x = _special_stack(alg, n)

    def sums(v):
        return np.ascontiguousarray(v).sum(axis=-1)

    for v in (x[0], x[1], x[2], x[:, 1], x.real[3], x[0, :1], np.asfortranarray(x[1])):
        got, got_warnings = _recorded(alg.traces, v)
        want, want_warnings = _recorded(sums, v)
        assert _bits(got) == _bits(want) and got_warnings == want_warnings, v
    for v in (x[0, 0], x[1, 1], x[2, 0], x[1, 2], x[3, 1], np.full(n, complex(-0.0, -0.0))):
        got, got_warnings = _recorded(getattr, alg.from_vec(v), "trace")
        want, want_warnings = _recorded(lambda v: complex(sums(v[None])[0]), v)
        assert _bits(got) == _bits(want) and got_warnings == want_warnings, v


@pytest.mark.parametrize("block_dims", [(1, 1, 2, 3, 3), (1,) * 6])
def test_kernel_matches_per_block_loops_on_contiguous_classes(block_dims):
    """Every size class is one run of blocks, so the kernel reads the blocks
    as slice views of its input: read-only stacks work, nothing is written
    back, and each spectral step agrees with a loop over single blocks."""
    rng = np.random.default_rng(8)
    alg = MultiMatrixAlgebra(block_dims)
    assert all(isinstance(take, slice) for _, _, take in alg.size_classes)
    x = _random_stack(alg, rng, (4, 3))
    x.flags.writeable = False
    before = x.copy()
    block_norms, min_eigs, svals = alg.block_norms(x), alg.min_eigenvalues(x), alg.singular_values(x)
    assert alg.max_operator_norm(x) == block_norms.max()
    for idx in np.ndindex(4, 3):
        blocks = alg.split(x[idx])
        want = [np.linalg.norm(b, 2) for b in blocks]
        assert np.abs(block_norms[idx] - want).max() <= 1e-12 * max(want)
        assert abs(alg.max_operator_norm(x[idx]) - max(want)) <= 1e-12 * max(want)
        want_eig = min(np.linalg.eigvalsh((b + b.conj().T) / 2).min() for b in blocks)
        assert abs(min_eigs[idx] - want_eig) <= 1e-12 * max(want)
        for (n, cidx, _), s, factors, eig in zip(alg.size_classes, svals, alg.svd(x[idx]), alg.eigh(x[idx])):
            _, w, sv, vh = factors
            _, ew, ev = eig
            for m, rows in enumerate(cidx):
                b = x[idx][rows].reshape(n, n)
                want_s = np.linalg.svd(b, compute_uv=False)
                assert np.abs(s[idx][m] - want_s).max() <= 1e-12 * max(want)
                assert np.abs(sv[m] - want_s).max() <= 1e-12 * max(want)
                assert np.abs((w[m] * sv[m]) @ vh[m] - b).max() <= 1e-12 * max(want)
                herm = (b + b.conj().T) / 2
                assert np.abs(ew[m] - np.linalg.eigvalsh(herm)).max() <= 1e-12 * max(want)
                assert np.abs((ev[m] * ew[m]) @ ev[m].conj().T - herm).max() <= 1e-12 * max(want)
        want_trace_norm = sum(np.linalg.svd(b, compute_uv=False).sum() for b in blocks)
        assert abs(alg.trace_norms(x[idx][None])[0] - want_trace_norm) <= 1e-12 * want_trace_norm
    assert np.array_equal(x, before)


def test_transpose_perm_matches_index_loop():
    for alg in ALGEBRAS:
        assert np.array_equal(alg.transpose_perm, _ref_transpose_perm(alg))


_CONSTANT_NAME = re.compile(r"_?[A-Z][A-Z0-9_]*")


def test_small_float_literals_are_named_module_constants():
    """Every tolerance, cutoff or bound of the library (a positive float
    literal of at most 1e-6, or a float literal of at least 1e6, such as a
    condition-number limit) is written once, as the value of a module-level
    UPPER_CASE assignment, so that each decision has one name."""
    src = pathlib.Path(quidem.__file__).parent
    stray = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        named = {
            id(node.value) for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
            and all(isinstance(t, ast.Name) and _CONSTANT_NAME.fullmatch(t.id) for t in node.targets)
        }
        stray += [
            f"{path.name}:{node.lineno}: {node.value!r}" for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, float)
            and (0.0 < node.value <= 1e-6 or node.value >= 1e6) and id(node) not in named
        ]
    assert not stray, stray
