"""Convolution products, operator matrices, the sharp involution, and
averaged convolution powers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quidem.convolution
from quidem import (
    Functional,
    cesaro_limit,
    commutes_with_right_convolutions,
    convolve,
    decompose,
    idempotency_defect,
    left_conv_operator,
    sharp,
)

from conftest import random_element, random_functional


def _delta(G, g):
    return Functional.from_covector(G.algebra, np.eye(G.dim)[g])


def _counit_after(T):
    """ε∘T for a convolution operator T, as recover_idempotent reads ω off L_ω."""
    return Functional.from_covector(T.group.algebra, T.matrix.T @ T.group.counit.covector)


def test_counit_is_convolution_unit(cz4, kp):
    rng = np.random.default_rng(0)
    for G in (cz4, kp):
        mu = random_functional(G.algebra, rng)
        assert (convolve(G, G.counit, mu) - mu).norm < 1e-12
        assert (convolve(G, mu, G.counit) - mu).norm < 1e-12


def test_point_masses_convolve_by_group_law(cs3):
    table = cs3.table
    for s in range(table.order):
        for t in range(table.order):
            product = convolve(cs3, _delta(cs3, s), _delta(cs3, t))
            assert (product - _delta(cs3, table.op(s, t))).norm < 1e-12


def test_haar_absorbs(kp):
    rng = np.random.default_rng(1)
    mu = random_functional(kp.algebra, rng)
    expected = mu(kp.algebra.identity()) * kp.haar
    assert (convolve(kp, kp.haar, mu) - expected).norm < 1e-10
    assert (convolve(kp, mu, kp.haar) - expected).norm < 1e-10


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_associativity_and_submultiplicativity(kp, seed):
    rng = np.random.default_rng(seed)
    a, b, c = (random_functional(kp.algebra, rng) for _ in range(3))
    lhs = convolve(kp, convolve(kp, a, b), c)
    rhs = convolve(kp, a, convolve(kp, b, c))
    assert (lhs - rhs).norm < 1e-10 * max(1.0, a.norm * b.norm * c.norm)
    assert convolve(kp, a, b).norm <= a.norm * b.norm + 1e-10


def test_left_operator_of_counit_is_identity(cz4):
    assert np.allclose(left_conv_operator(cz4, cz4.counit).matrix, np.eye(4))


def test_left_operator_of_haar_is_rank_one(kp):
    L = left_conv_operator(kp, kp.haar)
    assert np.linalg.matrix_rank(L.matrix) == 1
    rng = np.random.default_rng(3)
    a = random_element(kp.algebra, rng)
    image = L(a)
    expected = kp.haar(a) * kp.algebra.identity()
    assert (image - expected).operator_norm < 1e-10


def test_left_operator_of_mu0_is_signed_shift(cz4, mu0):
    L = left_conv_operator(cz4, mu0)
    f = cz4.algebra.from_vec(np.array([1.0, 2.0, 3.0, 4.0]))
    expected = cz4.algebra.from_vec((f.vec - np.roll(f.vec, -2)) / 2)
    assert (L(f) - expected).operator_norm < 1e-12


def test_composition_laws(kp):
    rng = np.random.default_rng(4)
    w, m = random_functional(kp.algebra, rng), random_functional(kp.algebra, rng)
    lw, lm = left_conv_operator(kp, w).matrix, left_conv_operator(kp, m).matrix
    rw, rm = kp.right_matrix(w.covector), kp.right_matrix(m.covector)
    conv = convolve(kp, w, m)
    assert np.allclose(left_conv_operator(kp, conv).matrix, lm @ lw, atol=1e-10)
    assert np.allclose(kp.right_matrix(conv.covector), rw @ rm, atol=1e-10)
    # left and right convolutions always commute
    assert np.allclose(lw @ rm, rm @ lw, atol=1e-10)


def test_recover_functional(cz4, kp, mu0):
    for G, omega in ((cz4, mu0), (kp, kp.haar), (cz4, cz4.counit)):
        assert (_counit_after(left_conv_operator(G, omega)) - omega).norm < 1e-12


def test_convolution_operator_criteria(kp, cs3):
    rng = np.random.default_rng(5)
    omega = random_functional(kp.algebra, rng)
    L = left_conv_operator(kp, omega).matrix
    assert commutes_with_right_convolutions(kp, L, 1e-9)
    # left multiplication by a non-scalar element is not a convolution operator
    a = cs3.algebra.from_vec(np.arange(6, dtype=float))
    mult = np.diag(np.arange(6, dtype=float))
    assert not commutes_with_right_convolutions(cs3, mult, 1e-6)
    # a right convolution on a noncommutative measure algebra fails too
    delta_s = Functional.from_covector(cs3.algebra, np.eye(6)[1])
    R = cs3.right_matrix(delta_s.covector)
    assert not commutes_with_right_convolutions(cs3, R, 1e-6)


def test_left_right_identification_of_recovered_functional(cs3, gz4):
    """The counit composed with L_μ always returns μ, so T = L_{ε∘T} for left
    convolution operators.  The matching right-operator identification
    T = R_{ε∘T} holds only in the cocommutative case; on a function algebra
    of a nonabelian group it fails."""
    delta = Functional.from_covector(cs3.algebra, np.eye(6)[1])
    L = left_conv_operator(cs3, delta)
    recovered = _counit_after(L)
    assert (recovered - delta).norm < 1e-12
    assert np.linalg.norm(L.matrix - cs3.right_matrix(recovered.covector), 2) > 0.5
    # cocommutative: the two operators coincide
    rng = np.random.default_rng(8)
    mu = random_functional(gz4.algebra, rng)
    assert np.allclose(
        left_conv_operator(gz4, mu).matrix, gz4.right_matrix(mu.covector), atol=1e-10
    )


def test_sharp_classical_point_masses(cs3):
    table = cs3.table
    for s in range(table.order):
        image = sharp(cs3, _delta(cs3, s))
        assert (image - _delta(cs3, table.inverse[s])).norm < 1e-12


def test_sharp_fixes_counit(kp):
    assert (sharp(kp, kp.counit) - kp.counit).norm < 1e-10


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_sharp_involution_antiautomorphism(kp, seed):
    rng = np.random.default_rng(seed)
    w, m = random_functional(kp.algebra, rng), random_functional(kp.algebra, rng)
    assert (sharp(kp, sharp(kp, w)) - w).norm < 1e-10
    lhs = sharp(kp, convolve(kp, w, m))
    rhs = convolve(kp, sharp(kp, m), sharp(kp, w))
    assert (lhs - rhs).norm < 1e-10


def test_sharp_gns_adjoint_relation(kp):
    """The adjoint of L_ω for the Haar inner product is L_{ω♯}; this is what
    makes images of contractive idempotents recoverable by orthogonal
    projection."""
    rng = np.random.default_rng(6)
    omega = random_functional(kp.algebra, rng)
    L = left_conv_operator(kp, omega).matrix
    Ls = left_conv_operator(kp, sharp(kp, omega)).matrix
    w = kp.haar_weight_vec
    adjoint = np.diag(1.0 / w) @ L.conj().T @ np.diag(w)
    assert np.linalg.norm(adjoint - Ls, 2) < 1e-10


def test_cesaro_idempotent_seed_returns_immediately(cz4, mu0):
    result = cesaro_limit(cz4, mu0, tol=1e-8)
    assert result.converged
    assert result.checkpoint == 1
    assert (result.limit - mu0).norm < 1e-12


def test_cesaro_generator_gives_uniform(cz6):
    delta = _delta(cz6, 1)
    result = cesaro_limit(cz6, delta, tol=1e-8, max_iter=10_000)
    assert result.converged
    uniform = Functional.from_covector(cz6.algebra, np.full(6, 1 / 6))
    assert (result.limit - uniform).norm <= 1e-8


def test_cesaro_order_three_element(cz6):
    delta = _delta(cz6, 2)
    result = cesaro_limit(cz6, delta, tol=1e-8, max_iter=10_000)
    assert result.converged
    expected = Functional.from_covector(cz6.algebra, np.array([1, 0, 1, 0, 1, 0]) / 3)
    assert (result.limit - expected).norm <= 1e-8
    # brute-force oracle: plain averaged powers over one period
    acc = delta
    powers = [delta]
    for _ in range(2):
        acc = convolve(cz6, acc, delta)
        powers.append(acc)
    brute = Functional.from_covector(
        cz6.algebra, sum(p.covector for p in powers) / 3
    )
    assert (result.limit - brute).norm <= 1e-8


def test_convolve_rejects_group_mismatch(cz4, cz6):
    with pytest.raises(ValueError):
        convolve(cz4, cz4.counit, cz6.counit)


def test_cesaro_rejects_expanding_seed(cz4):
    big = Functional.from_covector(cz4.algebra, np.array([2.0, 0, 0, 0]))
    with pytest.raises(ValueError):
        cesaro_limit(cz4, big)


def test_cesaro_zero_limit(cz4):
    minus = Functional.from_covector(cz4.algebra, -np.eye(4)[0])
    result = cesaro_limit(cz4, minus, tol=1e-8, max_iter=10_000)
    assert result.converged
    assert result.limit.norm < 1e-7


def test_cesaro_limit_commutes_with_seed(kp):
    rng = np.random.default_rng(9)
    seed = kp.algebra.random_state(rng)
    result = cesaro_limit(kp, seed, tol=1e-9, max_iter=10_000)
    assert result.converged
    limit = result.limit
    assert (convolve(kp, seed, limit) - limit).norm < 1e-8
    assert (convolve(kp, limit, seed) - limit).norm < 1e-8


def test_finish_skips_the_doubling_that_cannot_reach_tol(cz6):
    """A generator of Z6 has idempotency defect 2: the mean-ergodic
    projection is taken at once, with one op for the idempotency test and
    three for its checks, and at a looser tolerance gives a limit as close."""
    delta = _delta(cz6, 1)
    result = cesaro_limit(cz6, delta, tol=1e-8, max_iter=10_000)
    assert result.converged and result.ergodic_finish
    assert (result.checkpoint, result.iterations) == (1, 4)
    loose = cesaro_limit(cz6, delta, tol=1e-3, max_iter=100)
    assert (loose.checkpoint, loose.iterations) == (1, 4)
    assert (result.limit - loose.limit).norm < 1e-3


def test_cesaro_budget_of_four_pays_for_the_projection(cz6, kp):
    """One product tests the seed, three check its projection: a budget of
    three returns a seed that is not idempotent unconverged, and a budget of
    four returns the limit of the default budget, bit for bit."""
    rng = np.random.default_rng(4)
    for G, mu in ((cz6, _delta(cz6, 1)), (cz6, _delta(cz6, 2)), (kp, kp.algebra.random_state(rng))):
        short = cesaro_limit(G, mu, tol=1e-9, max_iter=3)
        assert not short.converged and short.limit is None and short.iterations == 1
        exact = cesaro_limit(G, mu, tol=1e-9, max_iter=4)
        assert exact.converged and exact.ergodic_finish and exact.iterations == 4
        assert np.array_equal(exact.limit.covector, cesaro_limit(G, mu, tol=1e-9).limit.covector)


@pytest.mark.parametrize("eta, tol, converged", [(1e-9, 1e-10, True), (1e-11, 1e-13, False)])
def test_cesaro_kernel_cut_is_floored_at_one(cz6, eta, tol, converged):
    """μ = (1 − η)δ₀ + ηδ₁ on C(Z6) has the uniform state as its limit, but
    T − 1 has singular values of order η and one of order 1e-17.  The kernel
    cut is RANK_CUTOFF·max(1, s[0]): at η = 1e-9 the values of order η count
    as rank and the projection is the uniform state, where a cut relative to
    s[0] alone would count the rounding value as rank too, leave an empty
    kernel and "converge" to the zero functional.  At η = 1e-11 the floor
    files the values of order η as kernel, and x⋆x = x reports the seed
    unconverged, never a wrong limit."""
    mu = Functional.from_covector(cz6.algebra, (1 - eta) * np.eye(6)[0] + eta * np.eye(6)[1])
    result = cesaro_limit(cz6, mu, tol=tol)
    assert result.iterations == 4 and result.ergodic_finish
    assert result.converged is converged
    if converged:
        uniform = Functional.from_covector(cz6.algebra, np.full(6, 1 / 6))
        assert (result.limit - uniform).norm <= tol and abs(result.limit.norm - 1) <= tol
    else:
        assert result.limit is None and result.idempotency_defect > tol


def test_cesaro_limit_requires_the_projection_to_absorb_the_seed(cz6, monkeypatch):
    """The counit ε is idempotent, but δ₁⋆ε = δ₁ ≠ ε on C(Z6), whose limit
    from δ₁ is the Haar state: a projection step that returned ε passes
    x⋆x = x, and the absorption check μ⋆x = x⋆μ = x must still leave the
    seed unconverged."""
    monkeypatch.setattr(quidem.convolution, "_mean_ergodic_projection", lambda G, mu: G.counit)
    result = cesaro_limit(cz6, _delta(cz6, 1), tol=1e-9)
    assert result.idempotency_defect <= 1e-12
    assert not result.converged and result.limit is None
    assert result.iterations == 4 and result.ergodic_finish


def _spy_idempotency(monkeypatch):
    """The functionals for which ‖ω⋆ω − ω‖ is computed, in call order."""
    measured, kernel = [], quidem.convolution._idempotency_defects
    monkeypatch.setattr(quidem.convolution, "_idempotency_defects", lambda G, fs: measured.extend(fs) or kernel(G, fs))
    return measured


def test_cesaro_idempotent_seed_is_recorded_under_itself(cz6, monkeypatch):
    """An idempotent seed is its own limit, and the defect the seed test
    measured is G.idempotency's entry for it, which a second call reads."""
    mu = Functional.from_covector(cz6.algebra, np.array([1, 0, 1, 0, 1, 0]) / 3)
    measured = _spy_idempotency(monkeypatch)
    result = cesaro_limit(cz6, mu, tol=1e-9)
    assert result.converged and result.limit is mu and result.iterations == 1
    assert cz6.idempotency[mu] == result.idempotency_defect == idempotency_defect(cz6, mu)
    assert cesaro_limit(cz6, mu, tol=1e-9).idempotency_defect == result.idempotency_defect
    assert measured == [mu]


def test_cesaro_limit_is_recorded_for_decompose(cz6, kp, monkeypatch):
    """A limit taken through the mean-ergodic projection carries the
    idempotency defect its check measured in G.idempotency, so decompose of
    the limit measures only its absolute values."""
    measured = _spy_idempotency(monkeypatch)
    for G, mu in ((cz6, _delta(cz6, 1)), (kp, kp.algebra.random_state(np.random.default_rng(9)))):
        measured.clear()
        result = cesaro_limit(G, mu, tol=1e-9)
        assert result.converged and result.ergodic_finish
        limit = result.limit
        assert G.idempotency[limit] == result.idempotency_defect
        assert measured == [mu, limit]
        rep = decompose(G, limit)
        assert measured[2:] == [rep.abs_r, rep.abs_l]


def test_cesaro_rejects_seed_of_another_group(cz4, cz6):
    with pytest.raises(ValueError, match="functionals do not live on this quantum group"):
        cesaro_limit(cz4, cz6.counit)


@pytest.mark.parametrize("entry, refusal", [
    (lambda G, H: left_conv_operator(G, H.counit), "^functionals do not live on this quantum group$"),
    (lambda G, H: sharp(G, H.counit), "^functionals do not live on this quantum group$"),
    (lambda G, H: convolve(G, G.counit, H.counit), "^functionals do not live on this quantum group$"),
    (lambda G, H: commutes_with_right_convolutions(G, np.eye(H.dim)),
     r"^operator of shape \(6, 6\) does not act on this quantum group \(dim 4\)$"),
], ids=["left_conv_operator", "sharp", "convolve", "commutes_with_right_convolutions"])
def test_input_of_another_algebra_is_refused(cz4, cz6, entry, refusal):
    """A functional or an operator of C(Z6) given to C(Z4) is refused by
    name, not by numpy's broadcast or matmul error."""
    with pytest.raises(ValueError, match=refusal):
        entry(cz4, cz6)


def test_finish_stays_within_max_iter(cz6):
    """The finish costs three products, so a budget of three cannot pay for it."""
    result = cesaro_limit(cz6, _delta(cz6, 1), tol=1e-8, max_iter=3)
    assert not result.converged and not result.ergodic_finish
    assert result.iterations == 1 and result.limit is None


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_cesaro_rejects_malformed_tol(cz6, tol):
    with pytest.raises(ValueError, match="finite tol at least 0"):
        cesaro_limit(cz6, _delta(cz6, 1), tol=tol)


@pytest.mark.parametrize("max_iter", [0, -5])
def test_cesaro_rejects_empty_budget(cz6, max_iter):
    with pytest.raises(ValueError, match="max_iter at least 1"):
        cesaro_limit(cz6, _delta(cz6, 1), max_iter=max_iter)
