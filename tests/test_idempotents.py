"""Recognition, construction, decomposition and enumeration of contractive
idempotents, including the classical oracles and abelian Fourier duality."""

import gc
import sys
import threading
import warnings

import numpy as np
import pytest

import quidem.algebra
import quidem.cli
import quidem.convolution
import quidem.idempotents
from quidem import (
    Functional,
    GroupTable,
    cesaro_limit,
    convolve,
    cyclic,
    dihedral,
    function_algebra,
    group_algebra,
    is_haar_idempotent,
    sharp,
    symmetric,
)

from quidem.algebra import MultiMatrixAlgebra, _Cohort, act_left, act_right, polar_decompose, support_projection
from quidem.catalogue import builtin
from quidem.idempotents import (
    construct,
    decompose,
    enumerate_function_algebra,
    enumerate_group_algebra,
    extract_subgroup_character,
    group_like_defect,
    is_contractive_idempotent,
    is_idempotent,
)
from quidem.qgroup import group_like_unitaries

from conftest import random_element


def _delta(G, g):
    return Functional.from_covector(G.algebra, np.eye(G.dim)[g])


def test_counit_is_contractive_idempotent(cz4, kp):
    for G in (cz4, kp):
        assert is_idempotent(G, G.counit)
        assert is_contractive_idempotent(G, G.counit)


def test_mu0_is_contractive_idempotent(cz4, mu0):
    assert is_contractive_idempotent(cz4, mu0)


def test_loose_tol_rejects_idempotent_below_norm_one(cz4):
    """0.3·δ₀ is idempotent within 0.25 but ‖ω‖ = 0.3: not contractive
    idempotent at that tol, and no error."""
    omega = Functional.from_covector(cz4.algebra, np.array([0.3, 0, 0, 0]))
    assert is_idempotent(cz4, omega, 0.25)
    assert not is_contractive_idempotent(cz4, omega, 0.25)


def test_non_subgroup_average_is_not_idempotent(cz4):
    bad = Functional.from_covector(cz4.algebra, np.array([0.5, 0.5, 0, 0]))
    assert not is_idempotent(cz4, bad)


def test_scaled_idempotent_is_not_contractive(cz4):
    uniform2 = Functional.from_covector(cz4.algebra, np.array([1.0, 0, 1.0, 0]))
    # 1_H-type functional with norm 2: idempotent only after scaling by 1/2
    assert not is_idempotent(cz4, uniform2) or uniform2.norm > 1


def test_construct_with_unit(cz4):
    sigma = Functional.from_covector(cz4.algebra, np.array([0.5, 0, 0.5, 0]))
    left, right, both = construct(cz4, sigma, cz4.algebra.identity())
    for f in (left, right, both):
        assert (f - sigma).norm < 1e-12


def test_construct_with_character(cz4, mu0):
    sigma = Functional.from_covector(cz4.algebra, np.array([0.5, 0, 0.5, 0]))
    u = cz4.algebra.from_vec(np.array([1, 1j, -1, -1j]))
    left, right, both = construct(cz4, sigma, u)
    # u.σ(f) = σ(fu) picks up the character values on the support
    assert (left - mu0).norm < 1e-12
    assert (both - sigma).norm < 1e-12


def test_construct_haar_with_group_like(kp):
    units = [u for u in group_like_unitaries(kp)]
    nontrivial = [u for u in units if (u - kp.algebra.identity()).operator_norm > 1e-6]
    u = nontrivial[0]
    val = kp.haar(u.adjoint() * u).real
    assert val == pytest.approx(1.0, abs=1e-10)
    left, _, _ = construct(kp, kp.haar, u)
    assert is_contractive_idempotent(kp, left)
    assert left.norm == pytest.approx(1.0, abs=1e-10)


def test_construct_zero_branch(cz4):
    sigma = Functional.from_covector(cz4.algebra, np.array([0.5, 0, 0.5, 0]))
    # unit-norm element supported off the subgroup {0, 2}
    u = cz4.algebra.from_vec(np.array([0, 1.0, 0, -1.0]))
    assert group_like_defect(cz4, sigma, u) < 1e-12
    assert sigma(u.adjoint() * u).real == pytest.approx(0.0, abs=1e-12)
    left, right, both = construct(cz4, sigma, u)
    for f in (left, right, both):
        assert f.norm < 1e-12


def test_construct_dichotomy_rejects_bad_u(cz4):
    sigma = Functional.from_covector(cz4.algebra, np.array([0.5, 0, 0.5, 0]))
    u = cz4.algebra.from_vec(np.array([1.0, 0, 0, 0]))  # σ(u*u) = 1/2, defect > 0
    with pytest.raises(ValueError):
        construct(cz4, sigma, u)


def test_decompose_counit(cz4):
    rep = decompose(cz4, cz4.counit)
    assert rep.haar
    assert (rep.abs_r - cz4.counit).norm < 1e-12
    assert (rep.abs_l - cz4.counit).norm < 1e-12
    assert rep.defect_r < 1e-12 and rep.defect_l < 1e-12
    assert rep.subgroup.target.algebra.block_dims == (1,)


def test_decompose_mu0(cz4, mu0):
    rep = decompose(cz4, mu0)
    assert rep.haar
    expected_abs = Functional.from_covector(cz4.algebra, np.array([0.5, 0, 0.5, 0]))
    assert (rep.abs_r - expected_abs).norm < 1e-12
    assert (rep.abs_l - expected_abs).norm < 1e-12
    assert np.allclose(rep.v.vec, [1, 0, -1, 0])
    assert rep.defect_r < 1e-12 and rep.defect_l < 1e-12
    assert rep.haar_gap == (rep.abs_r - rep.abs_l).norm
    assert rep.subgroup.target.algebra.block_dims == (1, 1)
    assert np.allclose(rep.character.vec, [1, -1])
    # ω(a) = h_H(π(a)u) on the whole basis
    h_sub = rep.subgroup.target.haar
    for x in cz4.algebra.basis():
        assert mu0(x) == pytest.approx(
            complex(h_sub(rep.subgroup.apply(x) * rep.character)), abs=1e-12
        )


def test_decompose_haar_state(kp):
    rep = decompose(kp, kp.haar)
    assert rep.haar
    assert rep.subgroup.target.algebra.block_dims == kp.algebra.block_dims
    assert (rep.character - kp.algebra.identity()).operator_norm < 1e-10


def test_decompose_rejects_non_idempotent(cz4):
    bad = Functional.from_covector(cz4.algebra, np.array([0.5, 0.5, 0, 0]))
    with pytest.raises(ValueError):
        decompose(cz4, bad)


def test_decompose_names_the_trace_defect_of_an_absolute_value_that_is_not_a_state(cz4):
    """ω = c·δ_0 + ε(δ_1 + δ_2 + δ_3) on C(Z4) at tol 1e-2, with c = 1 − tol − ε
    and ε = 5e-11 below the rank cut RANK_CUTOFF·c, passes the contractive
    check: |‖ω‖ − 1| = tol − 2ε and ‖ω⋆ω − ω‖ ≈ c(1 − c) < tol.  The cut
    drops the mass 3ε from |ω|_r, whose trace c then misses 1 by tol + ε."""
    tol, eps = 1e-2, 5e-11
    omega = Functional.from_covector(cz4.algebra, np.array([1 - tol - eps, eps, eps, eps]))
    with pytest.raises(ValueError, match=r"^right absolute value is not a state \(positivity defect .+, "
                                         r"trace defect 1\.000e-02\)$"):
        decompose(cz4, omega, tol)


def test_decompose_nonnormal_coset_indicator(gd4):
    """Coset of a non-normal subgroup of the order-8 dihedral group: the two
    absolute values are the indicators of different conjugate subgroups and
    the idempotent is not Haar (the finite shadow of composing a dual-group
    coset indicator with a quotient morphism)."""
    table = gd4.table
    reflection = table.closure([4])          # {e, s}, not normal
    assert not table.is_normal(reflection)
    g = 1                                    # r
    coset = frozenset(table.op(g, h) for h in reflection)   # rH
    values = np.zeros(8)
    for x in coset:
        values[x] = 1.0
    omega = Functional.from_covector(gd4.algebra, np.linalg.solve(gd4.lambda_basis.T, values))
    assert is_contractive_idempotent(gd4, omega)
    rep = decompose(gd4, omega)
    assert not rep.haar
    assert rep.subgroup is None and rep.haar_gap is None
    # |ω|_r is the indicator of the left stabilizer C C^{-1} = gHg^{-1} and
    # |ω|_l that of the right stabilizer C^{-1}C = H (stabilizers of C = gH)
    right_stab = frozenset(table.op(table.inverse[a], b) for a in coset for b in coset)
    left_stab = frozenset(table.op(a, table.inverse[b]) for a in coset for b in coset)
    assert right_stab == reflection
    assert left_stab != right_stab
    for sub, absval in ((left_stab, rep.abs_r), (right_stab, rep.abs_l)):
        vals = np.zeros(8)
        for x in sub:
            vals[x] = 1.0
        expected = Functional.from_covector(gd4.algebra, np.linalg.solve(gd4.lambda_basis.T, vals))
        assert (absval - expected).norm < 1e-9
    assert (rep.abs_r - rep.abs_l).norm > 0.1


def test_is_haar_idempotent_examples(cz4, kp, gd4):
    assert is_haar_idempotent(kp, kp.haar)
    sigma = Functional.from_covector(cz4.algebra, np.array([0.5, 0, 0.5, 0]))
    assert is_haar_idempotent(cz4, sigma)
    # indicator of a non-normal subgroup of the dihedral group: not Haar
    table = gd4.table
    reflection = table.closure([4])
    vals = np.zeros(8)
    for x in reflection:
        vals[x] = 1.0
    sigma_bad = Functional.from_covector(gd4.algebra, np.linalg.solve(gd4.lambda_basis.T, vals))
    assert is_idempotent(gd4, sigma_bad) and sigma_bad.is_state(1e-9)
    assert not is_haar_idempotent(gd4, sigma_bad)
    with pytest.raises(ValueError):
        is_haar_idempotent(cz4, Functional.from_covector(cz4.algebra, np.array([0.5, 0.5, 0, 0])))


def test_extract_requires_haar(gd4):
    table = gd4.table
    reflection = table.closure([4])
    coset = frozenset(table.op(1, h) for h in reflection)
    values = np.zeros(8)
    for x in coset:
        values[x] = 1.0
    omega = Functional.from_covector(gd4.algebra, np.linalg.solve(gd4.lambda_basis.T, values))
    with pytest.raises(ValueError):
        extract_subgroup_character(gd4, omega)


def test_decompose_measures_and_does_not_judge():
    """Near-idempotents that pass the contractive guard at a loose tol come
    back with their defects measured, not raised: on C(Z4) the group-like
    seminorms exceed tol, on C*(D3) the Haar gap does, and neither gets a
    subgroup.  extract_subgroup_character, which judges the report, raises
    a RuntimeError on each."""
    G = function_algebra(cyclic(4))
    near = Functional(G.algebra, G.algebra.from_vec(np.array([0.5, 0.001, -0.5, 0])))
    rep = decompose(G, near, 1e-2)
    assert rep.haar and rep.subgroup is None and rep.character is None and rep.subgroup_haar is None
    assert min(rep.defect_r, rep.defect_l) > 1e-2 >= max(rep.roundtrip_r, rep.roundtrip_l, rep.haar_gap)
    with pytest.raises(RuntimeError, match="^decomposition defects exceed tolerance$"):
        extract_subgroup_character(G, near, 1e-2)
    H = group_algebra(dihedral(3))
    omega = Functional(H.algebra, H.algebra.from_vec(np.array([0.333333, 0, -0.333333, 0.57735, 0.001, 0])))
    rep = decompose(H, omega, 3e-2)
    assert rep.haar and rep.subgroup is None and rep.haar_gap == pytest.approx(1.153, rel=1e-3)
    assert max(rep.idempotency_r, rep.idempotency_l, rep.defect_r, rep.defect_l, rep.roundtrip_r,
               rep.roundtrip_l) <= 3e-2
    with pytest.raises(RuntimeError, match="Haar case must have equal absolute values"):
        extract_subgroup_character(H, omega, 3e-2)


def test_sharp_fixes_contractive_idempotents(cz4, gd4, mu0):
    assert (sharp(cz4, mu0) - mu0).norm < 1e-12
    for item in enumerate_group_algebra(gd4)[:10]:
        assert (sharp(gd4, item.functional) - item.functional).norm < 1e-9


def _factorization_gap(G, w1, w2):
    """‖|ω₁⋆ω₂|_r − |ω₁|_r⋆|ω₂|_r‖, zero whenever ‖ω₁⋆ω₂‖ = ‖ω₁‖‖ω₂‖."""
    rhs = convolve(G, polar_decompose(w1).abs_r, polar_decompose(w2).abs_r)
    return (polar_decompose(convolve(G, w1, w2)).abs_r - rhs).norm


def test_absolute_value_factorization_for_idempotents(cz4, mu0):
    assert _factorization_gap(cz4, mu0, mu0) <= 1e-9


def test_absolute_value_factorization_point_masses(cs3):
    d1, d2 = _delta(cs3, 1), _delta(cs3, 2)
    assert abs(convolve(cs3, d1, d2).norm - d1.norm * d2.norm) <= 1e-12
    assert _factorization_gap(cs3, d1, d2) <= 1e-9


# ---------------------------------------------------------------------------
# enumeration oracles


def test_function_enumeration_counts():
    expected = {2: 3, 4: 7}
    for n, count in expected.items():
        G = function_algebra(cyclic(n))
        assert len(enumerate_function_algebra(G)) == count


def test_function_enumeration_needs_four_generators():
    # one item per subgroup H of Z2^4 and character of H:
    # 1·1 + 15·2 + 35·4 + 15·8 + 1·16 = 307
    z2_4 = GroupTable(tuple(tuple(a ^ b for b in range(16)) for a in range(16)))
    assert len(enumerate_function_algebra(function_algebra(z2_4))) == 307


def test_function_enumeration_s3(cs3):
    assert len(enumerate_function_algebra(cs3)) == 12


def test_function_enumeration_z2_values(cz2):
    # exactly δ0, (δ0+δ1)/2 and (δ0−δ1)/2
    items = enumerate_function_algebra(cz2)
    covs = sorted(tuple(np.round(i.functional.covector.real, 9)) for i in items)
    assert covs == [(0.5, -0.5), (0.5, 0.5), (1.0, 0.0)]


def test_enumerated_function_items_all_valid(cs3):
    for item in enumerate_function_algebra(cs3):
        assert is_contractive_idempotent(cs3, item.functional, 1e-9)
        rep = decompose(cs3, item.functional)
        assert rep.haar
        # the generating subgroup is recovered as the support of |ω|_r
        h_elems = sorted(item.subgroup)
        sub_dims = rep.subgroup.target.algebra.block_dims
        assert len(sub_dims) == len(h_elems)
        # character values match on the subgroup
        for pos, g in enumerate(h_elems):
            assert rep.character.vec[pos] == pytest.approx(item.character[g], abs=1e-8)


def test_group_enumeration_counts(gz4, gd4):
    assert len(enumerate_group_algebra(gz4)) == 7
    assert len(enumerate_group_algebra(gd4)) == 35


def test_enumerated_group_items_all_valid(gd4):
    table = gd4.table
    for item in enumerate_group_algebra(gd4):
        assert is_contractive_idempotent(gd4, item.functional, 1e-9)
        rep = decompose(gd4, item.functional)
        # Haar exactly when C^{-1}C is normal
        c = sorted(item.coset)
        cinv_c = frozenset(table.op(table.inverse[a], b) for a in c for b in c)
        assert cinv_c == item.subgroup
        assert rep.haar == table.is_normal(cinv_c)


def test_abelian_fourier_duality():
    """For cyclic groups the two enumerations correspond under the Fourier
    transform: evaluating a function-algebra idempotent on the characters
    gives a coset indicator on the dual side, with matching norms."""
    for n in (2, 3, 4, 6, 8):
        G = function_algebra(cyclic(n))
        Gd = group_algebra(cyclic(n))
        table = G.table
        chars = [np.array([np.exp(2j * np.pi * g * t / n) for t in range(n)]) for g in range(n)]
        fn_items = enumerate_function_algebra(G)
        gp_items = enumerate_group_algebra(Gd)
        assert len(fn_items) == len(gp_items)
        fn_transforms = []
        for item in fn_items:
            transform = np.array([item.functional(G.algebra.from_vec(chi)) for chi in chars])
            fn_transforms.append((transform, item.functional.norm))
        gp_values = []
        for item in gp_items:
            values = np.array([item.functional(Gd.algebra.from_vec(Gd.lambda_basis[:, g])) for g in range(n)])
            gp_values.append((values, item.functional.norm))
        used = set()
        for transform, norm in fn_transforms:
            match = None
            for k, (values, norm2) in enumerate(gp_values):
                if k not in used and np.abs(values - transform).max() < 1e-8:
                    match = k
                    assert abs(norm - norm2) < 1e-8
                    break
            assert match is not None, "no Fourier partner found"
            used.add(match)


def test_kp_has_non_haar_idempotent_states(kp):
    """The smallest genuinely quantum phenomenon: an idempotent state whose
    support projection is not central, so it is not the Haar state of any
    quantum subgroup.  Reached by averaging convolution powers of a state
    concentrated on the counit block plus a rank-one piece of the 2×2 block."""
    blocks = [np.zeros((n, n)) for n in kp.algebra.block_dims]
    blocks[0] = np.eye(1) / 2
    blocks[4] = np.diag([1.0, 0.0]) / 2
    seed = Functional(kp.algebra, kp.algebra.element(blocks))
    result = cesaro_limit(kp, seed, tol=1e-9, max_iter=10_000)
    assert result.converged
    sigma = result.limit
    assert is_idempotent(kp, sigma, 1e-9)
    assert sigma.is_state(1e-9)
    assert not is_haar_idempotent(kp, sigma)
    # its null space A(1 − s), s the support, is a left ideal that is not a two-sided ideal
    null = kp.algebra.identity() - support_projection(sigma.density)
    rng = np.random.default_rng(3)
    x, a = random_element(kp.algebra, rng), random_element(kp.algebra, rng)

    def sigma_sq(y):
        return abs(sigma(y.adjoint() * y))

    assert sigma_sq(x * a * null) < 1e-9          # left ideal
    assert sigma_sq(a * null * x) > 1e-3          # not a right ideal


def test_decompose_of_cesaro_limits_on_kp(kp):
    rng = np.random.default_rng(23)
    seen_nonhaar = False
    for _ in range(8):
        seed = kp.algebra.random_state(rng)
        result = cesaro_limit(kp, seed, tol=1e-9, max_iter=10_000)
        assert result.converged
        rep = decompose(kp, result.limit, 1e-8)
        seen_nonhaar = seen_nonhaar or not rep.haar
        assert rep.roundtrip_r < 1e-8 and rep.roundtrip_l < 1e-8


def _spy_kernels(monkeypatch, names):
    """Every call of the named MultiMatrixAlgebra kernels as (name, shape of
    the stack, whether the state-defect owner _keep_state_defects made it),
    and the stacks of functionals that owner is given."""
    calls, stacks, owning = [], [], []
    for name in names:
        def spy(self, x, *args, _orig=getattr(MultiMatrixAlgebra, name), _name=name, **kwargs):
            calls.append((_name, np.shape(x), bool(owning)))
            return _orig(self, x, *args, **kwargs)
        monkeypatch.setattr(MultiMatrixAlgebra, name, spy)

    def keep(functionals, _owner=quidem.algebra._keep_state_defects):
        stacks.append(list(functionals))
        owning.append(True)
        try:
            return _owner(functionals)
        finally:
            owning.pop()
    monkeypatch.setattr(quidem.algebra, "_keep_state_defects", keep)
    return calls, stacks


def test_haar_decompose_computes_each_fact_once(cz6, monkeypatch):
    """One Haar decompose takes the block norms of the support of |ω|_r once,
    for its Haar flag and its corner quotient alike, and measures the
    group-like residual of the character once, unitarity and Δ_H(u) = u⊗u
    in one number.  The state-defect owner takes its own block norms, one
    call per stack: the pair of absolute values, then the corner quotient's
    Haar state."""
    calls, stacks = _spy_kernels(monkeypatch, ["block_norms"])
    counts = {"group_like_residual": 0}

    def spy(*args, _orig=quidem.idempotents.group_like_residual, **kwargs):
        counts["group_like_residual"] += 1
        return _orig(*args, **kwargs)
    monkeypatch.setattr(quidem.idempotents, "group_like_residual", spy)
    # the sign character of H = {0, 3}
    omega = Functional.from_covector(cz6.algebra, np.array([0.5, 0.0, 0.0, -0.5, 0.0, 0.0]))
    rep = decompose(cz6, omega)
    assert rep.haar and rep.subgroup.kept_blocks == (0, 3) and rep.character_group_like <= 1e-12
    assert [by_owner for _, _, by_owner in calls].count(False) == 1 and counts == {"group_like_residual": 1}
    assert len(stacks) == 2 and stacks[0] == [rep.abs_r, rep.abs_l] and stacks[1] == [rep.subgroup.target.haar]
    assert [(name, shape[0]) for name, shape, by_owner in calls if by_owner] == [("block_norms", 2), ("block_norms", 1)]


def test_character_labels_print_no_roundoff():
    """Parts below 1e-12 print as zero, so ±i prints as "±1i", not with the
    roundoff of cos(π/2) on C(Z4) and on the order-4 cyclic subgroups of C(S4)."""
    labels = [item.label for item in enumerate_function_algebra(function_algebra(cyclic(4)))]
    assert "H={0,1,2,3}, chi=[+1,-1i,-1,+1i]" in labels and "H={0,1,2,3}, chi=[+1,+1i,-1,-1i]" in labels
    S4 = function_algebra(symmetric(4))
    values = [item.label.split("chi=[")[1].rstrip("]").split(",") for item in enumerate_function_algebra(S4)
              if len(item.subgroup) == 4 and max(map(S4.table.element_order, item.subgroup)) == 4]
    assert len(values) == 12 and sum("+1i" in chi for chi in values) == 6
    assert all(set(chi) <= {"+1", "-1", "+1i", "-1i"} for chi in values)


def test_contractive_verdict_and_decompose_measure_omega_once(gd4, monkeypatch):
    """is_contractive_idempotent, then decompose, on one ω: ω's idempotency
    defect is computed once, kept in G.idempotency for decompose, and
    |ω|_r and |ω|_l are measured once each."""
    measured, kernel = [], quidem.convolution._idempotency_defects
    monkeypatch.setattr(quidem.convolution, "_idempotency_defects", lambda G, fs: measured.extend(fs) or kernel(G, fs))
    omega = enumerate_group_algebra(gd4)[12].functional
    assert is_contractive_idempotent(gd4, omega)
    rep = decompose(gd4, omega)
    assert measured == [omega, rep.abs_r, rep.abs_l]


def test_support_of_abs_r_is_taken_once(gd4, monkeypatch):
    """decompose, extract_subgroup_character and is_haar_idempotent(G, |ω|_r)
    on one Haar ω share one support of |ω|_r, kept on its density: one
    block_norms call for the three, and one stacked eigendecomposition of
    both absolute values, |ω|_r's read by its state check and its support
    alike, made with the one block_norms call of their state defects.  The
    corner quotient, built and verified once per group, is built first."""
    decompose(gd4, enumerate_group_algebra(gd4)[0].functional)
    calls, stacks = _spy_kernels(monkeypatch, ["eigh", "block_norms"])
    omega = enumerate_group_algebra(gd4)[0].functional
    rep = decompose(gd4, omega)
    assert rep.haar
    extract_subgroup_character(gd4, omega)
    assert is_haar_idempotent(gd4, rep.abs_r)
    assert [name for name, _, by_owner in calls if not by_owner] == ["block_norms"]
    assert stacks == [[rep.abs_r, rep.abs_l]]
    assert [name for name, _, by_owner in calls if by_owner] == ["block_norms", "eigh"]
    assert support_projection(rep.abs_r.density) is rep.abs_r.density.support


@pytest.mark.parametrize("index", [0, 12])
def test_decompose_takes_one_spectral_pass(gd4, monkeypatch, index):
    """One decompose, Haar (item 0) or not (item 12), takes one stacked eigh
    of both absolute values and no min_eigenvalues; its round-trip and gap
    rows come from one stacked singular_values call, bit for bit the trace
    norms of the functionals they measure, and the idempotency defects of
    both absolute values from another.  The state defects of both absolute
    values are one stack, whose block norms are one more singular_values
    call.  The corner quotient, built and verified once per group, is built
    first."""
    decompose(gd4, enumerate_group_algebra(gd4)[index].functional)
    calls, stacks = _spy_kernels(monkeypatch, ["eigh", "min_eigenvalues", "singular_values"])
    omega = enumerate_group_algebra(gd4)[index].functional
    rep = decompose(gd4, omega)
    assert rep.haar == (index == 0)
    assert [name for name, _, _ in calls].count("eigh") == 1 and "min_eigenvalues" not in [name for name, _, _ in calls]
    assert stacks == [[rep.abs_r, rep.abs_l]]
    assert [(name, shape) for name, shape, by_owner in calls if by_owner] == [("singular_values", (2, gd4.dim)),
                                                                            ("eigh", (2, gd4.dim))]
    # the one pass, the idempotency defects and the centrality of supp |ω|_r
    # (four rows) are the only other stacks of several vecs
    assert [shape for name, shape, by_owner in calls
            if name == "singular_values" and not by_owner and len(shape) > 1 and shape[0] > 1] == [
        (3, gd4.dim), (2, gd4.dim), (4, gd4.dim)]
    assert rep.roundtrip_r == (act_left(rep.v, rep.abs_r) - omega).norm
    assert rep.roundtrip_l == (act_right(rep.abs_l, rep.v) - omega).norm
    assert rep.haar_gap == ((rep.abs_r - rep.abs_l).norm if rep.haar else None)


@pytest.mark.parametrize("kind", ["function", "group"])
@pytest.mark.parametrize("subset", [{0, 1, 2}, set(), {0, 7}, {0, -1}], ids=["unclosed", "empty", "out-of-range",
                                                                          "negative"])
def test_enumerations_refuse_a_non_subgroup(cs3, gs3, kind, subset):
    """Given subgroups are checked before anything is listed: on S3 the set
    {0, 1, 2} is not closed, the empty set holds no identity, and 7 and −1
    are no element indices (−1 would wrap round the table).  Each is refused
    with the ValueError that names the requirement, by both enumerators; a
    subgroup given lists the default's items of that subgroup."""
    G, enumerate_items = (cs3, enumerate_function_algebra) if kind == "function" else (gs3, enumerate_group_algebra)
    with pytest.raises(ValueError, match="requires a subgroup of the table"):
        enumerate_items(G, [G.table.closure([1]), frozenset(subset)])
    subgroup = G.table.closure([3])
    picked = enumerate_items(G, [subgroup])
    assert [item.label for item in picked] == [item.label for item in enumerate_items(G) if item.subgroup == subgroup]


def _spy_owners(monkeypatch):
    """The stacks each owner of a functional's facts is given, by fact."""
    stacks = {"norm": [], "polar": [], "state_defects": [], "idempotency": []}
    for fact, module, name in (("norm", quidem.algebra, "_keep_norms"), ("polar", quidem.algebra, "_keep_polars"),
                               ("state_defects", quidem.algebra, "_keep_state_defects"),
                               ("idempotency", quidem.convolution, "_idempotency_defects")):
        def spy(*args, _owner=getattr(module, name), _fact=fact):
            stacks[_fact].append(list(args[-1]))
            return _owner(*args)
        monkeypatch.setattr(module, name, spy)
    return stacks


@pytest.mark.parametrize("group, spec", [("cstar:sn:4", "index:233"), ("cfun:sn:4", "index:40"),
                                         ("cfun:sn:4", "subgroup-character:1,2:1"),
                                         ("cstar:sn:4", "coset-indicator:1:0"), ("cstar:sn:4", "point:3")])
def test_single_pick_sources_measure_one_functional(monkeypatch, group, spec):
    """A CLI source that picks one item of an enumeration drops the others,
    which are freed at once: through the contractive check and decompose,
    the owners measure ω alone and its absolute values as the pair that ω's
    polar parts make.  The control: an enumeration that is kept alive is
    measured whole on its first request."""
    G = builtin(group)
    stacks = _spy_owners(monkeypatch)
    omega = quidem.cli._parse_functional(G, spec)
    assert is_contractive_idempotent(G, omega)
    rep = decompose(G, omega)
    pair = [rep.abs_r, rep.abs_l]
    assert stacks["norm"][0] == [omega] and stacks["polar"][0] == [omega] and stacks["idempotency"][0] == [omega]
    assert stacks["state_defects"][0] == pair and stacks["idempotency"][1] == pair
    assert all(len(stack) == 1 for stack in stacks["norm"] + stacks["polar"])
    items = quidem.cli._enumerate(G)
    assert abs(items[7].functional.norm - 1.0) <= 1e-12
    assert stacks["norm"][-1] == [items[7].functional] + [item.functional for k, item in enumerate(items) if k != 7]


def test_cohort_skips_dropped_members(gd4, monkeypatch):
    """The items a caller dropped are freed and skipped: the first request
    for a fact measures the live members only, with the asking one first,
    and a later request of any member measures nothing more."""
    stacks = _spy_owners(monkeypatch)
    functionals = [item.functional for item in enumerate_group_algebra(gd4)]
    kept = functionals[::3]
    del functionals
    gc.collect()
    cohort = kept[0]._cohort
    assert sum(ref() is None for ref in cohort.members) == len(cohort.members) - len(kept) > 0
    assert abs(kept[1].norm - 1.0) <= 1e-12
    assert stacks["norm"] == [[kept[1], kept[0], *kept[2:]]]
    assert max(abs(f.norm - 1.0) for f in kept) <= 1e-12 and len(stacks["norm"]) == 1
    idempotency_defect = quidem.idempotents.idempotency_defect
    assert idempotency_defect(gd4, kept[2]) == gd4.idempotency[kept[2]] <= 1e-12
    assert stacks["idempotency"] == [[kept[2], kept[0], kept[1], *kept[3:]]]
    assert max(map(idempotency_defect, [gd4] * len(kept), kept)) <= 1e-12 and len(stacks["idempotency"]) == 1


def _cohort_reads(G, omega):
    """The facts a classification reads of ω: its norm, its idempotency
    defect and the state defects of both absolute values."""
    parts = omega.polar
    return omega.norm, quidem.idempotents.idempotency_defect(G, omega), parts.abs_r.state_defects, \
        parts.abs_l.state_defects


def test_cohort_shared_by_threads():
    """Eight threads, switching every microsecond, read the facts of one
    fresh enumeration of C*(D4), each starting at its own item: whichever
    thread's request takes a stack, every read equals the lone value."""
    G = builtin("cstar:dn:4")
    functionals = [item.functional for item in enumerate_group_algebra(G)]
    want = [_cohort_reads(G, _lone(f)) for f in functionals]
    reads = []

    def work(start):
        for k in range(start, start + len(functionals)):
            k %= len(functionals)
            reads.append((k, _cohort_reads(G, functionals[k])))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(3 * t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(reads) == 8 * len(functionals) and all(got == want[k] for k, got in reads)


def _lone(f):
    """A functional with a copy of f's density and no cohort: a stack of one."""
    return Functional(f.algebra, f.algebra.from_vec(f.density.vec))


@pytest.mark.parametrize("kind", ["function", "group"])
def test_zero_member_raises_only_its_own_error(cz4, gd4, kind):
    """A zero functional in a cohort has no polar parts: it raises when it
    is asked, and only then, while its siblings take theirs in the stack,
    byte for byte their lone values, with the state defects of their
    absolute values.  On C*(D4) a density with NaN in its 2×2 block raises
    LinAlgError on its norm, as it does alone, and its siblings' norms are
    their lone ones; so does an overflow warning turned into an error."""
    G, enumerate_items = (cz4, enumerate_function_algebra) if kind == "function" else (gd4, enumerate_group_algebra)
    first, second = (_lone(item.functional) for item in enumerate_items(G)[-2:])
    zero = Functional.zero(G.algebra)
    _Cohort([first, zero, second])
    assert first.polar is not None and "polar" in second.__dict__ and "polar" not in zero.__dict__
    with pytest.raises(ValueError, match="zero functional"):
        zero.polar
    for f in (first, second):
        parts, alone = f.polar, _lone(f).polar
        for got, want in ((parts.u, alone.u), (parts.abs_r.density, alone.abs_r.density),
                          (parts.abs_l.density, alone.abs_l.density)):
            assert got.vec.tobytes() == want.vec.tobytes()
        assert parts.abs_l.state_defects == alone.abs_l.state_defects
        assert parts.abs_r.state_defects == alone.abs_r.state_defects
    assert zero.norm == 0.0
    if kind == "group":
        vec = np.zeros(G.dim, dtype=np.complex128)
        vec[-1] = np.nan
        first, second = (_lone(item.functional) for item in enumerate_items(G)[:2])
        bad = Functional(G.algebra, G.algebra.from_vec(vec))
        _Cohort([first, bad, second])
        assert first.norm == _lone(first).norm and second.norm == _lone(second).norm
        for f in (bad, _lone(bad)):
            with pytest.raises(np.linalg.LinAlgError):
                f.norm
    # with warnings as errors, a sibling whose norm overflows raises its
    # warning when it is asked, as alone, and never when a sibling is
    vec = np.zeros(G.dim, dtype=np.complex128)
    vec[:2] = 1e308   # two 1×1 blocks: their sum overflows
    first, second = (_lone(item.functional) for item in enumerate_items(G)[:2])
    huge = Functional(G.algebra, G.algebra.from_vec(vec))
    _Cohort([first, huge, second])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert first.norm == _lone(first).norm and second.norm == _lone(second).norm
        for f in (huge, _lone(huge)):
            with pytest.raises(RuntimeWarning, match="overflow"):
                f.norm
