"""Images of convolution operators as ternary rings of operators, linking
algebras, the entrywise conditional expectation, and recovery of the
idempotent from its TRO."""

import sys
import threading
from functools import cached_property

import numpy as np
import pytest
import quidem.convolution
import quidem.idempotents
import quidem.tro
from quidem import (
    Functional,
    MultiMatrixAlgebra,
    cyclic,
    function_algebra,
    left_conv_operator,
)
from quidem.algebra import CHECK_TOL, CP_FLOOR
from quidem.idempotents import enumerate_group_algebra
from quidem.tro import (
    LinkingAlgebra,
    OperatorSubspace,
    SchurExpectation,
    _commutators,
    _tro_residuals,
    build_expectation,
    check_tro_expectation,
    expectation_checks,
    image_subspace,
    is_nondegenerate,
    is_right_invariant,
    is_tro,
    linking_algebra,
    preserves_weight,
    recover_idempotent,
)
from conftest import random_element, random_functional
from test_oracles import (_image_row_residuals, _ref_entry_indices, _ref_m2, _ref_multiplicative_defect,
                          _ref_schur_matrix, _rescaled, _residual, _unit_index)


def _subspace(alg, vecs):
    return OperatorSubspace.from_spanning(alg, vecs)


def _expectation_passed(checks, tol=CHECK_TOL):
    """The four expectation fields judged as the CLI's expectation rows judge
    them: each residual at most tol, the least Choi eigenvalue at least
    -CP_FLOOR."""
    worst = max(checks.idempotent, checks.fixes_subalgebra, checks.bimodule)
    return worst <= tol and checks.choi_min_eigenvalue >= -CP_FLOOR


def test_image_of_counit_is_everything(cz4):
    X = image_subspace(left_conv_operator(cz4, cz4.counit))
    assert X.dim == cz4.dim


def test_image_of_haar_is_scalars(kp):
    X = image_subspace(left_conv_operator(kp, kp.haar))
    assert X.dim == 1
    assert _residual(X, kp.algebra.identity() * (1 / np.sqrt(kp.algebra.trace_norms(kp.algebra.identity().vec[None])[0]))) <= 1e-8


def test_image_of_mu0_is_antiperiodic(cz4, mu0):
    X = image_subspace(left_conv_operator(cz4, mu0))
    assert X.dim == 2
    f = cz4.algebra.from_vec(np.array([1.0, 2.0, -1.0, -2.0]))
    assert _residual(X, f * (1 / np.linalg.norm(f.vec))) <= 1e-10
    g = cz4.algebra.from_vec(np.array([1.0, 0, 1.0, 0]))
    assert _residual(X, g) > 1e-6


def test_is_tro_examples(cz4):
    m2 = __import__("quidem").MultiMatrixAlgebra((2,))
    whole = _subspace(m2, [np.eye(2).ravel(), [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert is_tro(whole)
    e12 = _subspace(m2, [[0, 1, 0, 0]])
    assert is_tro(e12)
    # e11 + e12 has a single nonzero singular value, so its span is still a
    # TRO (x x* x = 2x); distinct singular values break closure
    slanted = _subspace(m2, [[1, 1, 0, 0]])
    assert is_tro(slanted)
    stretched = _subspace(m2, [[1, 0, 0, 2]])  # diag(1,2): x x* x = diag(1,8)
    assert not is_tro(stretched)
    mixed = _subspace(m2, [[1, 0, 0, 0], [0, 1, 1, 0]])  # {e11, e12+e21}
    assert not is_tro(mixed)


def test_nondegenerate_examples(cz4, mu0):
    X = image_subspace(left_conv_operator(cz4, mu0))
    assert is_nondegenerate(X)
    whole = image_subspace(left_conv_operator(cz4, cz4.counit))
    assert is_nondegenerate(whole)
    alg = __import__("quidem").MultiMatrixAlgebra((2, 1))
    corner = OperatorSubspace.from_spanning(alg, [np.eye(5)[0]])  # e11 in the M2 block
    assert not is_nondegenerate(corner)


def test_rank_deficit_negative_controls(kp, gs3):
    """The zero subspace, spanned by zeros or by nothing, misses all of A,
    and a random subspace with one block zeroed misses that block's n_b²
    coordinates.  On KP, span{1 + e⁽⁴⁾₀₁} is nondegenerate but not a TRO,
    and 1 ∉ ⟨XX*⟩ there: the unit of the linking algebra shows
    nondegeneracy only on TROs."""
    alg = kp.algebra
    for vecs in (np.zeros((2, alg.dim)), []):
        zero = OperatorSubspace.from_spanning(alg, vecs)
        assert zero.matrix.shape == (alg.dim, 0) and zero.rank_deficit == alg.dim and not is_nondegenerate(zero)
    rng = np.random.default_rng(3)
    for G in (kp, gs3):
        for block, n in enumerate(G.algebra.block_dims):
            vecs = []
            for _ in range(3):
                blocks = [rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)) for m in G.algebra.block_dims]
                blocks[block] = np.zeros((n, n))
                vecs.append(G.algebra.element(blocks).vec)
            assert OperatorSubspace.from_spanning(G.algebra, vecs).rank_deficit == n * n
    x = alg.identity().vec.copy()
    x[_unit_index(alg, 4, 0, 1)] = 1.0
    X = OperatorSubspace.from_spanning(alg, [x])
    assert X.rank_deficit == 0 and is_nondegenerate(X)
    assert abs(X.tro_defect - 0.117) <= 1e-3 and not is_tro(X)
    assert _residual(X.product_spans[0], alg.identity()) > 1.2


def test_right_invariance_examples(cz4, mu0):
    X = image_subspace(left_conv_operator(cz4, mu0))
    assert is_right_invariant(cz4, X)
    point = _subspace(cz4.algebra, [np.eye(4)[0]])
    assert not is_right_invariant(cz4, point)
    whole = image_subspace(left_conv_operator(cz4, cz4.counit))
    assert is_right_invariant(cz4, whole)


def test_check_tro_expectation_counit_and_haar(cz4, kp):
    for G, omega in ((cz4, cz4.counit), (kp, kp.haar), (kp, kp.counit)):
        report = check_tro_expectation(G, omega)
        assert report.passed(1e-10), report.identity_residuals


def test_check_tro_expectation_mu0(cz4, mu0):
    report = check_tro_expectation(cz4, mu0)
    assert report.passed(1e-12)
    assert max(*report.identity_residuals.values(), *report.expectation_residuals.values()) <= 1e-12


def test_triple_product_identities_agree(cz4, gd4, mu0):
    """The triple product L_ω(a)L_ω(b)*L_ω(c) equals its three absorbed forms:
    the TRO-expectation residuals with x and y over the image rows L_ω(e_i)."""
    for G, omega, bound in ((cz4, mu0, 1e-12), (gd4, enumerate_group_algebra(gd4)[20].functional, 1e-9)):
        lw = G.left_matrix(omega.covector)
        assert max(_image_row_residuals(G.algebra, lw).values()) < bound


def test_linking_algebra_of_single_matrix_unit():
    from quidem import MultiMatrixAlgebra

    m2 = MultiMatrixAlgebra((2,))
    X = _subspace(m2, [[0, 1, 0, 0]])
    link = linking_algebra(X)
    assert link.corner_dims() == (1, 1, 1)
    assert _residual(link.left, m2.from_vec(np.array([1.0, 0, 0, 0]))) <= 1e-10
    assert _residual(link.right, m2.from_vec(np.array([0, 0, 0, 1.0]))) <= 1e-10


def test_linking_algebra_of_mu0(cz4, mu0):
    X = image_subspace(left_conv_operator(cz4, mu0))
    link = linking_algebra(X)
    assert link.corner_dims() == (2, 2, 2)
    periodic = cz4.algebra.from_vec(np.array([1.0, 2.0, 1.0, 2.0]) / np.sqrt(10))
    assert _residual(link.left, periodic) <= 1e-9
    assert _residual(link.right, periodic) <= 1e-9
    assert _ref_multiplicative_defect(link) < 1e-10


def test_expectation_of_counit_is_identity(cz4):
    E = build_expectation(cz4, cz4.counit)
    for row in E.entries:
        for entry in row:
            assert np.allclose(entry, np.eye(cz4.dim))


def test_expectation_of_haar_averages(kp):
    E = build_expectation(kp, kp.haar)
    link = linking_algebra(image_subspace(left_conv_operator(kp, kp.haar)))
    assert _expectation_passed(expectation_checks(E, link))
    assert preserves_weight(E)
    rng = np.random.default_rng(0)
    x = random_element(kp.algebra, rng)
    out = kp.algebra.from_vec(E.entries[0][0] @ x.vec)
    assert (out - kp.haar(x) * kp.algebra.identity()).operator_norm < 1e-10


def test_expectation_full_checks_mu0(cz4, mu0):
    E = build_expectation(cz4, mu0)
    link = linking_algebra(image_subspace(left_conv_operator(cz4, mu0)))
    checks = expectation_checks(E, link)
    assert _expectation_passed(checks, 1e-10)
    assert preserves_weight(E, 1e-10)


def test_expectation_rejects_scaled_corner(cz4, mu0):
    E = _rescaled(build_expectation(cz4, mu0), 2.0, 1.0)
    link = linking_algebra(image_subspace(left_conv_operator(cz4, mu0)))
    assert not _expectation_passed(expectation_checks(E, link))


def test_weight_preservation_fails_for_counit_average(cz4, mu0):
    E = build_expectation(cz4, mu0)
    assert preserves_weight(E, 1e-8)
    # h∘L_φ = φ(1)h, so an entry Ω_00 with Ω_00(1) = 2 doubles the Haar weight
    (_, w), (wbar, l) = E.linking
    assert not preserves_weight(SchurExpectation(group=cz4, linking=[[2.0 * cz4.counit, w], [wbar, l]]), 1e-8)


def test_schur_matrix_has_no_cross_entry_coupling(kp):
    """The dense matrix of E on M₂(A) holds each entry L_{Ω_ij} in its own
    (entry indices, entry indices) block and is exactly 0 elsewhere: the
    structure the entrywise checks of expectation_checks and preserves_weight
    rely on, and the form the dense oracles of test_oracles build."""
    rng = np.random.default_rng(7)
    dim = kp.dim
    linking = [[random_functional(kp.algebra, rng) for _ in range(2)] for _ in range(2)]
    E = SchurExpectation(group=kp, linking=linking)
    m2 = _ref_m2(kp.algebra)
    M = _ref_schur_matrix(E)
    inside = np.zeros(M.shape, dtype=bool)
    for i in range(2):
        for j in range(2):
            block = np.ix_(_ref_entry_indices(m2, i, j), _ref_entry_indices(m2, i, j))
            assert np.array_equal(M[block], kp.left_matrix(linking[i][j].covector))
            inside[block] = True
    assert np.count_nonzero(inside) == 4 * dim * dim
    assert np.all(M[~inside] == 0)


def test_recover_from_scalars_gives_haar(kp):
    X = _subspace(kp.algebra, [kp.algebra.identity().vec])
    result = recover_idempotent(kp, X)
    assert result.ok
    assert (result.functional - kp.haar).norm < 1e-10


def test_recover_from_whole_algebra_gives_counit(kp):
    X = image_subspace(left_conv_operator(kp, kp.counit))
    result = recover_idempotent(kp, X)
    assert result.ok
    assert (result.functional - kp.counit).norm < 1e-10


def test_recover_mu0(cz4, mu0):
    X = _subspace(cz4.algebra, [np.array([1, 0, -1, 0.0]), np.array([0, 1, 0, -1.0])])
    result = recover_idempotent(cz4, X)
    assert result.ok
    assert (result.functional - mu0).norm < 1e-10


def test_recover_rejects_non_invariant(cz4):
    point = _subspace(cz4.algebra, [np.eye(4)[0]])
    result = recover_idempotent(cz4, point)
    assert not result.ok
    assert any("invariant" in reason or "TRO" in reason for reason in result.reasons)


def test_recover_roundtrip_group_algebra(gd4):
    for item in enumerate_group_algebra(gd4)[::5]:
        X = image_subspace(left_conv_operator(gd4, item.functional))
        result = recover_idempotent(gd4, X)
        assert result.ok, result.reasons
        assert (result.functional - item.functional).norm < 1e-8


@pytest.fixture(scope="module")
def stack_cases(gd4):
    """(group, idempotent) pairs: the counit of C*(D4) (image dimension
    k = dim = 8), an idempotent of C*(D4) with k = 4, and the point mass at
    0 on C(Z16), whose image is all of C(Z16)."""
    items = enumerate_group_algebra(gd4)
    k4 = next(item.functional for item in items if len(item.subgroup) == 4)
    cz16 = function_algebra(cyclic(16))
    return [(gd4, gd4.counit), (gd4, k4), (cz16, cz16.counit)]


def test_tro_stacks_hold_at_most_dim_squared_vecs(stack_cases, monkeypatch):
    """No product stack of the TRO checks, multiplied in the algebra or
    normed in it, holds more than dim² vecs (dim of the algebra), and each
    chunked stack reaches that bound.  The commutator kernel and its TRO
    reads, whose middle stack is built by matmul, are also run on their
    own, since inside check_tro_expectation the product spans of a full
    image (k = dim) reach the bound as well."""
    largest = {}
    multiply, max_operator_norm = MultiMatrixAlgebra.multiply, MultiMatrixAlgebra.max_operator_norm

    def record(dim, stack):
        largest[dim] = max(largest.get(dim, 0), stack.size // dim)

    def recording(self, x, y):
        out = multiply(self, x, y)
        record(self.dim, out)
        return out

    def recording_norm(self, x):
        record(self.dim, np.asarray(x))
        return max_operator_norm(self, x)

    monkeypatch.setattr(MultiMatrixAlgebra, "multiply", recording)
    monkeypatch.setattr(MultiMatrixAlgebra, "max_operator_norm", recording_norm)
    for G, omega in stack_cases:
        lw = G.left_matrix(omega.covector)
        X = OperatorSubspace.from_spanning(G.algebra, lw.T)
        entries = build_expectation(G, omega).entries
        for check in (
            lambda: _tro_residuals(G.algebra, _commutators(G.algebra, entries,
                                                           LinkingAlgebra(X, *X.product_spans).corners())),
            lambda: check_tro_expectation(G, omega),
            lambda: is_tro(X),
        ):
            largest.clear()
            check()
            assert largest == {G.dim: G.dim ** 2}


def test_expectation_checks_stay_in_A(stack_cases, monkeypatch):
    """expectation_checks works on the four (dim, dim) entries and the four
    functionals of Ω: it never multiplies in M₂(A), no product stack holds
    more than dim² vecs of A, and the eigenvalues are taken in an algebra of
    dimension at most 4·dim (M₂(A), where Ω's density lives), not in the
    Choi algebra M₂⊗(A⊗A) of dimension 4·dim²."""
    largest, eig_dims = {}, []
    multiply, min_eigenvalues = MultiMatrixAlgebra.multiply, MultiMatrixAlgebra.min_eigenvalues

    def recording(self, x, y):
        out = multiply(self, x, y)
        largest[self.dim] = max(largest.get(self.dim, 0), out.size // self.dim)
        return out

    def recording_eigs(self, x):
        eig_dims.append(self.dim)
        return min_eigenvalues(self, x)

    monkeypatch.setattr(MultiMatrixAlgebra, "multiply", recording)
    monkeypatch.setattr(MultiMatrixAlgebra, "min_eigenvalues", recording_eigs)
    for G, omega in stack_cases:
        link = linking_algebra(image_subspace(left_conv_operator(G, omega)))
        E = build_expectation(G, omega)
        largest.clear()
        eig_dims.clear()
        assert _expectation_passed(expectation_checks(E, link))
        assert largest.keys() == {G.dim}
        assert largest[G.dim] <= G.dim ** 2
        assert eig_dims and max(eig_dims) <= 4 * G.dim


def test_subspace_facts_are_computed_once(gd4, monkeypatch):
    """On one X, the triple-product kernel, the product spans and the
    nondegeneracy ranks each run once across is_tro, is_nondegenerate,
    linking_algebra and recover_idempotent."""
    calls = []
    for name in ("tro_defect", "product_spans", "rank_deficit"):
        def counted(self, fn=OperatorSubspace.__dict__[name].func, name=name):
            calls.append(name)
            return fn(self)
        prop = cached_property(counted)
        prop.__set_name__(OperatorSubspace, name)
        monkeypatch.setattr(OperatorSubspace, name, prop)
    omega = next(item.functional for item in enumerate_group_algebra(gd4) if len(item.subgroup) == 4)
    X = image_subspace(left_conv_operator(gd4, omega))
    assert is_tro(X) and is_nondegenerate(X)
    link = linking_algebra(X)
    assert recover_idempotent(gd4, X).ok
    assert sorted(calls) == ["product_spans", "rank_deficit", "tro_defect"]
    assert (link.left, link.right) == X.product_spans


def test_tro_report_calls_compute_each_fact_once(gd4, monkeypatch):
    """The public calls of one TRO report on C*(D4) index:12, in turn:
    X = L_ω(A) and both linking corners are measured for right invariance
    once each, and ω's idempotency defect once over the whole report: the
    guards of check_tro_expectation and build_expectation and the
    expectation's idempotency row share it."""
    measured, idempotency = [], []
    invariance, kernel = quidem.tro.invariance_defect, quidem.convolution._idempotency_defects
    monkeypatch.setattr(quidem.tro, "invariance_defect", lambda G, X: measured.append(X) or invariance(G, X))
    monkeypatch.setattr(quidem.convolution, "_idempotency_defects",
                        lambda G, fs: idempotency.extend(fs) or kernel(G, fs))
    omega, tol = enumerate_group_algebra(gd4)[12].functional, 1e-8
    assert check_tro_expectation(gd4, omega, tol).passed(tol)
    X = image_subspace(left_conv_operator(gd4, omega))
    assert is_tro(X, tol) and is_nondegenerate(X, tol)
    link = linking_algebra(X, tol)
    assert all(is_right_invariant(gd4, Y, tol) for Y in (X, link.left, link.right))
    E = build_expectation(gd4, omega, tol)
    assert _expectation_passed(expectation_checks(E, link), tol) and preserves_weight(E, tol)
    recovery = recover_idempotent(gd4, X, tol)
    assert recovery.ok
    assert measured == [X, link.left, link.right]
    assert [f for f in idempotency if f is omega] == [omega]


@pytest.mark.parametrize("call", [build_expectation, check_tro_expectation], ids=["expectation", "tro-report"])
def test_one_contractive_guard_per_call(cz4, monkeypatch, call):
    """build_expectation and check_tro_expectation run the one guard of
    their Analysis, once: it passes a contractive idempotent and names any
    other functional in a ValueError."""
    guarded, guard = [], quidem.tro._require_contractive
    monkeypatch.setattr(quidem.tro, "_require_contractive", lambda *args: guarded.append(args[1]) or guard(*args))
    call(cz4, cz4.counit)
    assert len(guarded) == 1 and guarded[0] is cz4.counit
    with pytest.raises(ValueError, match="^not a contractive idempotent"):
        call(cz4, Functional.from_covector(cz4.algebra, np.eye(4)[1]))


def test_shared_caches_hold_under_threads(gd4):
    """Threads that share one group and one subspace, switching every
    microsecond, each read ω's idempotency defect and X's invariance defect:
    every read and each cache's one entry equal the measurement taken alone."""
    omega = enumerate_group_algebra(gd4)[12].functional
    X = image_subspace(left_conv_operator(gd4, omega))
    want = (quidem.convolution._idempotency_defects(gd4, [omega])[0], quidem.tro.invariance_defect(gd4, X))
    reads = []

    def work():
        for _ in range(20):
            reads.append((quidem.idempotents.idempotency_defect(gd4, omega), X.right_invariance(gd4)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert reads == [want] * 160
    assert gd4.idempotency[omega] == want[0] and dict(X.invariance) == {gd4: want[1]}


def test_subspace_is_immutable(cz4):
    """An OperatorSubspace holds a read-only copy of its basis, so facts
    cached on it stay true."""
    vecs = np.eye(4)[:2].T.copy()
    X = OperatorSubspace(cz4.algebra, vecs)
    vecs[0, 0] = 5.0
    assert X.matrix[0, 0] == 1.0 and not X.matrix.flags.writeable
