"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import numpy as np
import pytest

from quidem import (
    Functional,
    cesaro_limit,
    cyclic,
    dihedral,
    function_algebra,
    group_algebra,
    kac_paljutkin,
    left_conv_operator,
    sharp,
    symmetric,
)
from quidem.algebra import act_left, act_right
from quidem.groups import characters
from quidem.idempotents import (
    construct,
    decompose,
    enumerate_function_algebra,
    enumerate_group_algebra,
    group_like_defect,
    is_contractive_idempotent,
    is_idempotent,
)
from quidem.qgroup import (
    cocommutativity_defect,
    commutativity_defect,
    group_like_unitaries,
    is_group_like,
    verify_axioms,
)
from quidem.tro import (
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

from conftest import random_element

TOL_AXIOM = 1e-9
TOL = 1e-8
CP_FLOOR = -1e-9


def _report(number, text):
    print(f"[PASS] criterion {number}: {text}")


@pytest.fixture(scope="module")
def groups():
    return {
        "cz4": function_algebra(cyclic(4)),
        "cs3": function_algebra(symmetric(3)),
        "gz4": group_algebra(cyclic(4)),
        "gd4": group_algebra(dihedral(4)),
        "kp": kac_paljutkin(),
    }


@pytest.fixture(scope="module")
def kp_discovered(groups):
    """Contractive idempotents on the Kac-Paljutkin quantum group discovered
    by averaging convolution powers of seeded random states."""
    kp = groups["kp"]
    rng = np.random.default_rng(0)
    found = []
    for _ in range(10):
        seed = kp.algebra.random_state(rng)
        result = cesaro_limit(kp, seed, tol=TOL, max_iter=10_000)
        assert result.converged
        if result.limit.norm < 1e-8:
            continue
        if all((result.limit - old).norm > 1e-6 for old, _ in found):
            found.append((result.limit, "kp-cesaro"))
    # structured seeds reach the idempotent states with partial support,
    # including the non-Haar ones (counit block plus a rank-one piece of the
    # two-dimensional block)
    structured = []
    for block in range(5):
        blocks = [np.zeros((n, n)) for n in kp.algebra.block_dims]
        n = kp.algebra.block_dims[block]
        blocks[block] = np.eye(n) / n
        structured.append((f"kp-cesaro-block{block}", blocks))
    for name, p in (("diag10", np.diag([1.0, 0.0])), ("diag01", np.diag([0.0, 1.0]))):
        blocks = [np.zeros((n, n)) for n in kp.algebra.block_dims]
        blocks[0] = np.eye(1) / 2
        blocks[4] = p / 2
        structured.append((f"kp-cesaro-corner-{name}", blocks))
    for label, blocks in structured:
        seed = Functional(kp.algebra, kp.algebra.element(blocks))
        result = cesaro_limit(kp, seed, tol=TOL, max_iter=10_000)
        if result.converged and result.limit is not None and result.limit.norm > 1e-8:
            if all((result.limit - old).norm > 1e-6 for old, _ in found):
                found.append((result.limit, label))
    assert found
    from quidem.idempotents import is_haar_idempotent

    assert any(
        omega.state_defects[0] <= 1e-9 and not is_haar_idempotent(kp, omega) for omega, _ in found
    ), "expected at least one non-Haar idempotent state among the discoveries"
    return found


@pytest.fixture(scope="module")
def catalogue_idempotents(groups, kp_discovered):
    """Every enumerated contractive idempotent plus the cesaro-discovered
    ones on the Kac-Paljutkin quantum group."""
    out = []
    for key in ("cz4", "cs3"):
        for k, item in enumerate(enumerate_function_algebra(groups[key])):
            out.append((groups[key], item.functional, f"{key}[{k}]"))
    for key in ("gz4", "gd4"):
        for k, item in enumerate(enumerate_group_algebra(groups[key])):
            out.append((groups[key], item.functional, f"{key}[{k}]"))
    for omega, label in kp_discovered:
        out.append((groups["kp"], omega, label))
    return out


def test_criterion_1_axiom_suite():
    cases = []
    for n in range(2, 9):
        cases.append((function_algebra(cyclic(n)), True, True, f"C(Z{n})"))
        cases.append((group_algebra(cyclic(n)), True, True, f"C*(Z{n})"))
    cases.append((function_algebra(symmetric(3)), True, False, "C(S3)"))
    cases.append((group_algebra(symmetric(3)), False, True, "C*(S3)"))
    cases.append((group_algebra(dihedral(4)), False, True, "C*(D4)"))
    cases.append((kac_paljutkin(), False, False, "KacPaljutkin"))
    for G, commutative, cocommutative, label in cases:
        report = verify_axioms(G, TOL_AXIOM)
        assert report.passed, f"{label}: {report.failures()}"
        assert (commutativity_defect(G) <= TOL_AXIOM) == commutative, label
        assert (cocommutativity_defect(G) <= TOL_AXIOM) == cocommutative, label
    _report(1, f"axioms at {TOL_AXIOM:g} and (co)commutativity flags for {len(cases)} groups")


def test_criterion_2_subgroup_character_oracle():
    expected_counts = {"Z2": (cyclic(2), 3), "Z4": (cyclic(4), 7), "S3": (symmetric(3), 12)}
    total = 0
    for label, (table, count) in expected_counts.items():
        G = function_algebra(table)
        items = enumerate_function_algebra(G)
        assert len(items) == count, f"{label}: {len(items)} != {count}"
        for item in items:
            assert is_contractive_idempotent(G, item.functional, 1e-9)
            rep = decompose(G, item.functional, TOL)
            assert rep.haar
            # the generating subgroup is recovered: the corner keeps exactly
            # the blocks of the subgroup elements, in sorted order
            h_elems = sorted(item.subgroup)
            assert list(rep.subgroup.kept_blocks) == h_elems
            for pos, g in enumerate(h_elems):
                assert abs(rep.character.vec[pos] - item.character[g]) <= TOL
            total += 1
    _report(2, f"counts 3/7/12 and (H, character) recovered for all {total} items")


def test_criterion_3_coset_oracle():
    gz4 = group_algebra(cyclic(4))
    assert len(enumerate_group_algebra(gz4)) == 7
    gd4 = group_algebra(dihedral(4))
    table = gd4.table
    items = enumerate_group_algebra(gd4)
    agree = 0
    for item in items:
        rep = decompose(gd4, item.functional, TOL)
        c = sorted(item.coset)
        cinv_c = frozenset(table.op(table.inverse[a], b) for a in c for b in c)
        assert cinv_c == item.subgroup
        assert rep.haar == table.is_normal(cinv_c)
        agree += 1
    assert agree == len(items)
    _report(3, f"Z4 count 7; haar flag matches normality of C^-1C on {agree}/{len(items)} dihedral items")


def test_criterion_4_abelian_duality_cross_oracle():
    checked = 0
    for n in range(2, 9):
        G = function_algebra(cyclic(n))
        Gd = group_algebra(cyclic(n))
        fn_items = enumerate_function_algebra(G)
        gp_items = enumerate_group_algebra(Gd)
        assert len(fn_items) == len(gp_items)
        chars = [
            G.algebra.from_vec(np.exp(2j * np.pi * g * np.arange(n) / n)) for g in range(n)
        ]
        transforms = [
            (np.array([item.functional(chi) for chi in chars]), item.functional.norm)
            for item in fn_items
        ]
        values = [
            (
                np.array(
                    [item.functional(Gd.algebra.from_vec(Gd.lambda_basis[:, g])) for g in range(n)]
                ),
                item.functional.norm,
            )
            for item in gp_items
        ]
        used = set()
        for transform, norm in transforms:
            matches = [
                k
                for k, (vals, _) in enumerate(values)
                if k not in used and np.abs(vals - transform).max() <= TOL
            ]
            assert matches, f"Z{n}: no Fourier partner"
            k = matches[0]
            used.add(k)
            assert abs(norm - values[k][1]) <= TOL
            checked += 1
    _report(4, f"both enumerations correspond under Fourier transform for Z2..Z8 ({checked} pairs)")


def test_criterion_5_decomposition_roundtrip(catalogue_idempotents):
    for G, omega, label in catalogue_idempotents:
        rep = decompose(G, omega, TOL)
        assert (act_left(rep.v, rep.abs_r) - omega).norm <= TOL, label
        assert (act_right(rep.abs_l, rep.v) - omega).norm <= TOL, label
        assert rep.defect_r <= TOL and rep.defect_l <= TOL, label
        for sigma in (rep.abs_r, rep.abs_l):
            assert is_idempotent(G, sigma, 1e-9), label
            assert sigma.is_state(1e-9), label
    _report(5, f"polar round trip and defect seminorms for {len(catalogue_idempotents)} idempotents")


def test_criterion_6_mixed_identities_and_sharp(catalogue_idempotents):
    for G, omega, label in catalogue_idempotents:
        report = check_tro_expectation(G, omega, TOL)
        assert all(v <= TOL for v in report.identity_residuals.values()), label
        assert (sharp(G, omega) - omega).norm <= TOL, label
    _report(6, f"all four mixed-product identities and sharp-invariance for {len(catalogue_idempotents)} idempotents")


def test_criterion_7_tro_suite(catalogue_idempotents):
    for G, omega, label in catalogue_idempotents:
        X = image_subspace(left_conv_operator(G, omega))
        assert is_tro(X, TOL), label
        assert is_nondegenerate(X, TOL), label
        assert is_right_invariant(G, X, TOL), label
        link = linking_algebra(X, TOL)
        E = build_expectation(G, omega, TOL)
        checks = expectation_checks(E, link)
        assert checks.idempotent <= TOL, label
        assert checks.fixes_subalgebra <= TOL, label
        assert checks.bimodule <= TOL, label
        assert checks.choi_min_eigenvalue >= CP_FLOOR, label
        assert preserves_weight(E, TOL), label
        result = recover_idempotent(G, X, TOL)
        assert result.ok, (label, result.reasons)
        assert (result.functional - omega).norm <= TOL, label
    _report(7, f"TRO + expectation + recovery bijection for {len(catalogue_idempotents)} idempotents")


def test_criterion_8_haar_case(catalogue_idempotents):
    count = 0
    for G, omega, label in catalogue_idempotents:
        rep = decompose(G, omega, TOL)
        if not rep.haar:
            continue
        count += 1
        assert (rep.abs_r - rep.abs_l).norm <= TOL, label
        assert is_group_like(rep.subgroup.target, rep.character, TOL), label
        h_sub = rep.subgroup.target.haar
        for x in G.algebra.basis():
            predicted = h_sub(rep.subgroup.apply(x) * rep.character)
            assert abs(omega(x) - predicted) <= TOL, label
    assert count > 0
    _report(8, f"equal absolute values and omega = h_H(pi(.)u) for {count} Haar idempotents")


def _dichotomy_pairs(groups, rng, kp_states):
    """Generate (G, sigma, u) with sigma an idempotent state and u a
    contraction whose group-like defect vanishes in the sigma⊗sigma
    seminorm, alternating between the unit and zero branches."""
    cz4, cs3 = groups["cz4"], groups["cs3"]
    gz4, gd4 = groups["gz4"], groups["gd4"]
    kp = groups["kp"]
    pairs = []

    def function_case(G):
        table = G.table
        subgroups = table.subgroups
        h = subgroups[rng.integers(0, len(subgroups))]
        elems = sorted(h)
        chars = characters(table, h)
        chi = chars[rng.integers(0, len(chars))]
        sigma_cov = np.zeros(table.order, dtype=np.complex128)
        for pos, g in enumerate(elems):
            sigma_cov[g] = 1.0 / len(elems)
        sigma = Functional.from_covector(G.algebra, sigma_cov)
        u_vec = np.exp(2j * np.pi * rng.random(table.order))
        if rng.random() < 0.5:  # unit branch: character on H, free phases off H
            for pos, g in enumerate(elems):
                u_vec[g] = chi[pos]
        else:                   # zero branch: vanish on H
            scale = rng.random()
            u_vec = u_vec * scale
            for g in elems:
                u_vec[g] = 0.0
        return G, sigma, G.algebra.from_vec(u_vec)

    def group_case(G):
        table = G.table
        subgroups = table.subgroups
        h = sorted(subgroups[rng.integers(0, len(subgroups))])
        values = np.zeros(table.order)
        for g in h:
            values[g] = 1.0
        sigma = Functional.from_covector(
            G.algebra, np.linalg.solve(G.lambda_basis.T, values)
        )
        if rng.random() < 0.5:  # unit branch: a phased group-like basis element
            g = rng.integers(0, table.order)
            phase = np.exp(2j * np.pi * rng.random())
            u = G.algebra.from_vec(phase * G.lambda_basis[:, g])
        else:                   # zero branch: coset sums of the coefficients vanish
            g = rng.integers(0, table.order)
            k = h[rng.integers(0, len(h))] if len(h) > 1 else None
            if k is None:
                u = G.algebra.zero()
            else:
                vec = 0.5 * (
                    G.lambda_basis[:, g] - G.lambda_basis[:, table.op(g, k)]
                )
                u = G.algebra.from_vec(vec)
        return G, sigma, u

    kp_units = group_like_unitaries(kp)
    kp_sigmas = [kp.haar, kp.counit] + list(kp_states)

    def kp_case():
        which = rng.random()
        if which < 0.55:        # discovered idempotent state with a phased group-like
            sigma = kp_sigmas[rng.integers(0, len(kp_sigmas))]
            u = kp_units[rng.integers(0, len(kp_units))]
            phase = np.exp(2j * np.pi * rng.random())
            return kp, sigma, phase * u
        # counit with a generic contraction shifted so that epsilon(u) = 0
        sigma = kp.counit
        x = random_element(kp.algebra, rng)
        x = (0.9 / x.operator_norm) * x
        u = x - kp.counit(x) * kp.algebra.identity()
        u = (0.9 / max(1.0, u.operator_norm)) * u
        return kp, sigma, u

    builders = [
        lambda: function_case(cz4),
        lambda: function_case(cs3),
        lambda: group_case(gz4),
        lambda: group_case(gd4),
        kp_case,
    ]
    while len(pairs) < 200:
        candidate = builders[rng.integers(0, len(builders))]()
        G, sigma, u = candidate
        if u.operator_norm > 1 + 1e-12:
            continue
        if group_like_defect(G, sigma, u) > 1e-10:
            continue
        pairs.append(candidate)
    return pairs


def test_criterion_9_dichotomy(groups, kp_discovered):
    rng = np.random.default_rng(2024)
    kp_states = [omega for omega, _ in kp_discovered if omega.state_defects[0] <= 1e-9]
    pairs = _dichotomy_pairs(groups, rng, kp_states)
    assert len(pairs) == 200
    zero_branch = unit_branch = 0
    for G, sigma, u in pairs:
        value = sigma(u.adjoint() * u).real
        assert min(abs(value), abs(value - 1.0)) <= TOL
        left, right, both = construct(G, sigma, u, 1e-8)
        if abs(value) <= TOL:
            zero_branch += 1
            assert left.norm <= TOL and right.norm <= TOL and both.norm <= TOL
            continue
        unit_branch += 1
        for omega in (left, right):
            rep = decompose(G, omega, TOL)
            assert (act_left(rep.v, rep.abs_r) - omega).norm <= TOL
            assert (act_right(rep.abs_l, rep.v) - omega).norm <= TOL
            assert rep.defect_r <= TOL and rep.defect_l <= TOL
            for sig in (rep.abs_r, rep.abs_l):
                assert is_idempotent(G, sig, 1e-9) and sig.is_state(1e-9)
    assert zero_branch > 10 and unit_branch > 10
    _report(9, f"sigma(u*u) in {{0,1}} for 200 pairs ({unit_branch} unit / {zero_branch} zero branch)")


def test_criterion_10_cesaro_exploration(groups, kp_discovered):
    cz6 = function_algebra(cyclic(6))
    table = cz6.table
    for g in range(6):
        delta = Functional.from_covector(cz6.algebra, np.eye(6)[g])
        result = cesaro_limit(cz6, delta, tol=TOL, max_iter=10_000)
        assert result.converged and result.iterations <= 10_000
        generated = sorted(table.closure([g]))
        uniform = np.zeros(6)
        for h in generated:
            uniform[h] = 1.0 / len(generated)
        target = Functional.from_covector(cz6.algebra, uniform)
        assert (result.limit - target).norm <= TOL
    # the discovered Kac-Paljutkin idempotents pass criteria 5-8 (asserted in
    # those tests via the shared catalogue); here: they are honest idempotents
    kp = groups["kp"]
    for omega, label in kp_discovered:
        assert is_contractive_idempotent(kp, omega, 1e-9), label
    _report(10, f"delta seeds equidistribute on Z6 and {len(kp_discovered)} KP idempotents discovered")
