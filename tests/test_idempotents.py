"""Recognition, construction, decomposition and enumeration of contractive
idempotents, including the classical oracles and abelian Fourier duality."""

import numpy as np
import pytest

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

from quidem.algebra import MultiMatrixAlgebra, act_left, act_right, polar_decompose, support_projection
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


def test_haar_decompose_computes_each_fact_once(cz6, monkeypatch):
    """One Haar decompose takes the block norms of the support of |ω|_r once,
    for its Haar flag and its corner quotient alike, and measures the
    group-like residual of the character once, unitarity and Δ_H(u) = u⊗u
    in one number."""
    counts = {"block_norms": 0, "group_like_residual": 0}
    for owner, name in ((MultiMatrixAlgebra, "block_norms"), (quidem.idempotents, "group_like_residual")):
        def spy(*args, _orig=getattr(owner, name), _name=name, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(owner, name, spy)
    # the sign character of H = {0, 3}
    omega = Functional.from_covector(cz6.algebra, np.array([0.5, 0.0, 0.0, -0.5, 0.0, 0.0]))
    rep = decompose(cz6, omega)
    assert rep.haar and rep.subgroup.kept_blocks == (0, 3) and rep.character_group_like <= 1e-12
    assert counts == {"block_norms": 1, "group_like_residual": 1}


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
    measured, kernel = [], quidem.convolution._idempotency_defect
    monkeypatch.setattr(quidem.convolution, "_idempotency_defect", lambda G, f: measured.append(f) or kernel(G, f))
    omega = enumerate_group_algebra(gd4)[12].functional
    assert is_contractive_idempotent(gd4, omega)
    rep = decompose(gd4, omega)
    assert measured == [omega, rep.abs_r, rep.abs_l]


def test_support_of_abs_r_is_taken_once(gd4, monkeypatch):
    """decompose, extract_subgroup_character and is_haar_idempotent(G, |ω|_r)
    on one Haar ω share one support of |ω|_r, kept on its density: one
    block_norms call for the three, and one eigendecomposition per absolute
    value, |ω|_r's read by its state check and its support alike.  The
    corner quotient, built and verified once per group, is built first."""
    decompose(gd4, enumerate_group_algebra(gd4)[0].functional)
    counts = {"eigh": 0, "block_norms": 0}
    for name in counts:
        def spy(*args, _orig=getattr(MultiMatrixAlgebra, name), _name=name, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(MultiMatrixAlgebra, name, spy)
    omega = enumerate_group_algebra(gd4)[0].functional
    rep = decompose(gd4, omega)
    assert rep.haar
    extract_subgroup_character(gd4, omega)
    assert is_haar_idempotent(gd4, rep.abs_r)
    assert counts == {"eigh": 2, "block_norms": 1}
    assert support_projection(rep.abs_r.density) is rep.abs_r.density.support


@pytest.mark.parametrize("index", [0, 12])
def test_decompose_takes_one_spectral_pass(gd4, monkeypatch, index):
    """One decompose, Haar (item 0) or not (item 12), takes one eigh per
    absolute value and no min_eigenvalues, and its round-trip and gap rows
    come from one stacked singular_values call, bit for bit the trace norms
    of the functionals they measure.  The corner quotient, built and
    verified once per group, is built first."""
    decompose(gd4, enumerate_group_algebra(gd4)[index].functional)
    counts, stacks = {"eigh": 0, "min_eigenvalues": 0}, []
    for name in counts:
        def spy(*args, _orig=getattr(MultiMatrixAlgebra, name), _name=name, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(MultiMatrixAlgebra, name, spy)
    singular_values = MultiMatrixAlgebra.singular_values
    monkeypatch.setattr(MultiMatrixAlgebra, "singular_values",
                        lambda self, x: stacks.append(np.shape(x)) or singular_values(self, x))
    omega = enumerate_group_algebra(gd4)[index].functional
    rep = decompose(gd4, omega)
    assert rep.haar == (index == 0)
    assert counts == {"eigh": 2, "min_eigenvalues": 0}
    # the one pass and the centrality of supp |ω|_r (four rows) are the only stacks
    assert [shape for shape in stacks if len(shape) > 1] == [(3, gd4.dim), (4, gd4.dim)]
    assert rep.roundtrip_r == (act_left(rep.v, rep.abs_r) - omega).norm
    assert rep.roundtrip_l == (act_right(rep.abs_l, rep.v) - omega).norm
    assert rep.haar_gap == ((rep.abs_r - rep.abs_l).norm if rep.haar else None)
