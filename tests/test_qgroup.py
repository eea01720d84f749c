"""Axiom verification, duality, quotients, group-like elements."""

import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from quidem import (
    Functional,
    cesaro_limit,
    cyclic,
    dihedral,
    dual,
    function_algebra,
    group_algebra,
    is_group_like,
    kac_paljutkin,
    quotient_by_support,
    symmetric,
    verify_axioms,
)
from quidem import qgroup, wedderburn
from quidem.algebra import MultiMatrixAlgebra, is_central, polar_decompose, support_projection
from quidem.catalogue import builtin, save
from quidem.cli import main
from quidem.idempotents import (decompose, enumerate_function_algebra, enumerate_group_algebra,
                                extract_subgroup_character)
from quidem.qgroup import (
    AXIOM_ROWS,
    FiniteQuantumGroup,
    closed_form_antipode,
    cocommutativity_defect,
    commutativity_defect,
    dual_pair,
    group_like_unitaries,
    plancherel_state,
)

from conftest import random_element


def test_axioms_cz2_exact(cz2):
    report = verify_axioms(cz2, 1e-12)
    assert report.passed
    assert report.max_defect == 0.0


def test_axioms_group_algebra_s3(gs3):
    report = verify_axioms(gs3, 1e-12)
    assert report.passed


def test_corrupted_comultiplication_detected(cz4):
    comult = cz4.comult.copy()
    comult[3, 2] += 1e-3
    broken = FiniteQuantumGroup(
        algebra=cz4.algebra,
        comult=comult,
        counit=cz4.counit,
        antipode=cz4.antipode,
        haar=cz4.haar,
    )
    report = verify_axioms(broken, 1e-9)
    assert not report.passed
    assert report.defects["coassociativity"] >= 1e-4


def test_haar_is_tracial(kp, gs3):
    for G in (kp, gs3):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a, b = random_element(G.algebra, rng), random_element(G.algebra, rng)
            assert G.haar(a * b) == pytest.approx(G.haar(b * a), abs=1e-10)


def test_haar_density_is_central(kp):
    d = kp.haar.density
    rng = np.random.default_rng(1)
    x = random_element(kp.algebra, rng)
    assert (d * x - x * d).operator_norm < 1e-12


def test_solvers_reproduce_structure(cz4):
    h = plancherel_state(cz4.algebra)
    assert (h - cz4.haar).norm < 1e-10
    s = closed_form_antipode(cz4.algebra, cz4.comult, cz4.counit)
    assert np.linalg.norm(s - cz4.antipode) < 1e-9


def test_haar_defaults_to_the_plancherel_state(kp, cm):
    """A group built without a Haar state carries the Plancherel state of its
    algebra, bit for bit; one given explicitly (C(M)'s δ₀) is kept."""
    G = FiniteQuantumGroup(algebra=kp.algebra, comult=kp.comult, counit=kp.counit, antipode=kp.antipode)
    assert np.array_equal(G.haar.covector, plancherel_state(kp.algebra).covector)
    assert np.array_equal(kp.haar.covector, G.haar.covector)
    assert np.array_equal(cm.haar.covector, [0.0, 1.0])


def test_monoid_algebra_fails_cancellation_and_has_no_antipode(cm):
    """Negative control: T₁T₁⁻¹ and T₂T₂⁻¹ miss the identity by 1 on C(M),
    and the closed-form antipode fails its laws."""
    report = verify_axioms(cm, 1e-9)
    assert report.defects["cancellation_left"] == 1.0
    assert report.defects["cancellation_right"] == 1.0
    assert not report.passed
    closed = replace(cm, antipode=closed_form_antipode(cm.algebra, cm.comult, cm.counit))
    assert {"antipode_left", "antipode_right"} <= verify_axioms(closed, 1e-9).failures().keys()


def test_dual_of_function_algebra_is_group_algebra_shape(cz4):
    d = dual(cz4)
    assert d.algebra.block_dims == (1, 1, 1, 1)
    assert cocommutativity_defect(d) < 1e-12
    assert verify_axioms(d, 1e-9).passed


def test_dual_of_group_algebra_s3(gs3):
    d = dual(gs3)
    assert d.algebra.block_dims == (1, 1, 1, 1, 1, 1)
    assert commutativity_defect(d) < 1e-12


def test_double_dual_block_dims(kp, gz4):
    for G in (kp, gz4):
        dd = dual(dual(G))
        assert sorted(dd.algebra.block_dims) == sorted(G.algebra.block_dims)
        assert verify_axioms(dd, 1e-9).passed


def test_dual_kp_block_dims(kp):
    assert dual(kp).algebra.block_dims == (1, 1, 1, 1, 2)


def test_group_likes_of_function_algebra_are_characters(cz4):
    units = group_like_unitaries(cz4)
    assert len(units) == 4
    for u in units:
        assert is_group_like(cz4, u, 1e-10)
    # the characters of Z4 as diagonal functions
    found = {complex(np.round(u.vec[1], 8)) for u in units}
    assert found == {1, -1, 1j, -1j}


def test_character_function_is_group_like(cz4):
    assert is_group_like(cz4, cz4.algebra.identity(), 1e-12)
    u = cz4.algebra.from_vec(np.array([1, 1j, -1, -1j]))
    assert is_group_like(cz4, u, 1e-12)
    not_u = cz4.algebra.from_vec(np.array([1, 1, -1, -1j]))
    assert not is_group_like(cz4, not_u, 1e-8)


@pytest.mark.parametrize("norms", [(math.nan, 0.0), (0.0, math.nan)], ids=["unitarity", "comultiplication"])
def test_group_like_residual_keeps_a_nan_in_either_part(cz4, monkeypatch, norms):
    """group_like_residual is the larger of the unitarity and the
    comultiplication norms, and NaN when either is (the builtin max(0.0,
    nan) would give 0.0), so is_group_like refuses it."""
    calls = iter(norms * 2)
    monkeypatch.setattr(MultiMatrixAlgebra, "max_operator_norm", lambda self, x: next(calls))
    assert math.isnan(qgroup.group_like_residual(cz4, cz4.algebra.identity()))
    assert not is_group_like(cz4, cz4.algebra.identity(), 1.0)


def test_lambda_basis_is_group_like(gd4):
    for g in (1, 4, 5):
        u = gd4.algebra.from_vec(gd4.lambda_basis[:, g])
        assert is_group_like(gd4, u, 1e-10)


def test_group_likes_of_kp(kp):
    units = group_like_unitaries(kp)
    assert len(units) == 4
    for u in units:
        assert is_group_like(kp, u, 1e-10)


@pytest.mark.parametrize("eps", [1e-9, 3e-9])
def test_group_likes_of_a_failing_structure_are_refused_like_the_dual(kp, eps):
    """Every third comultiplication entry of KP moved by eps: the axioms fail
    (comult_unital reaches 8.1e-9 at 1e-9), and group_like_unitaries raises
    the ValueError of dual_pair naming the failing rows, rather than four
    characters (at 1e-9) or a failed block decomposition (at 3e-9)."""
    comult = kp.comult.copy()
    comult.ravel()[::3] += eps
    failures = verify_axioms(replace(kp, comult=comult)).failures()
    assert failures["comult_unital"] > 8e-9
    for transform in (dual_pair, group_like_unitaries):
        message = f"dual() requires a verified quantum group; failures: {failures}"
        with pytest.raises(ValueError) as caught:
            transform(replace(kp, comult=comult))
        assert str(caught.value) == message


def test_quotient_full_support(cz4):
    sub = quotient_by_support(cz4, cz4.algebra.identity())
    assert sub.target.algebra.block_dims == cz4.algebra.block_dims
    assert np.array_equal(sub.projection, np.eye(cz4.dim)[np.isin(cz4.algebra.coordinates[0], sub.kept_blocks)])


def test_quotient_by_counit_support(cz4):
    s = support_projection(cz4.counit.density)
    sub = quotient_by_support(cz4, s)
    assert sub.target.algebra.block_dims == (1,)
    assert verify_axioms(sub.target, 1e-9).passed


def test_quotient_z4_to_z2(cz4):
    s = cz4.algebra.from_vec(np.array([1.0, 0.0, 1.0, 0.0]))
    sub = quotient_by_support(cz4, s)
    H = sub.target
    assert H.algebra.block_dims == (1, 1)
    assert verify_axioms(H, 1e-9).passed
    # the projection restricts functions to the subgroup {0, 2}
    f = cz4.algebra.from_vec(np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.allclose(sub.apply(f).vec, [1.0, 3.0])
    assert sub.intertwining_defect < 1e-12


def test_quotient_rejects_noncentral(gd4):
    rng = np.random.default_rng(2)
    # a rank-one projection inside the 2x2 block is not central
    blocks = [np.zeros((n, n)) for n in gd4.algebra.block_dims]
    blocks[-1] = np.diag([1.0, 0.0])
    p = gd4.algebra.element(blocks)
    with pytest.raises(ValueError):
        quotient_by_support(gd4, p)


@pytest.mark.parametrize("entries", [{1: 1 + 5e-9}, {5: 5e-9, 6: 5e-9}])
def test_centrality_verdicts_on_a_perturbed_central_projection(kp, entries):
    """s = e_0 + e_1, the support of the Haar state of an order-two subgroup
    of KP, moved by 5e-9 on its second 1×1 block or off the diagonal of the
    2×2 block: a central projection at 1e-8, and not a projection at 1e-9,
    for is_central and quotient_by_support alike."""
    vec = np.zeros(kp.dim)
    vec[[0, 1]] = 1.0
    for i, value in entries.items():
        vec[i] = value
    s = kp.algebra.from_vec(vec)
    assert is_central(s, 1e-8)
    assert quotient_by_support(kp, s, tol=1e-8).kept_blocks == (0, 1)
    with pytest.raises(ValueError, match="^is_central expects a projection$"):
        is_central(s, 1e-9)
    with pytest.raises(ValueError, match="^is_central expects a projection$"):
        quotient_by_support(kp, s)


def test_quotient_rejects_a_projection_of_another_algebra(cz4):
    """The identity of C(Z8) is no projection of C(Z4): a named error, not an IndexError."""
    with pytest.raises(ValueError, match="^support projection lives in a different algebra$"):
        quotient_by_support(cz4, function_algebra(cyclic(8)).algebra.identity())


def test_quotient_rejects_non_subgroup_support(cz4):
    # {0, 1} is not a subgroup of Z4: the corner coproduct cannot close
    s = cz4.algebra.from_vec(np.array([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        quotient_by_support(cz4, s)


def test_verify_axioms_row_names_and_order(cz4):
    assert list(verify_axioms(cz4).defects) == [
        "comult_unital", "comult_homomorphism", "comult_star", "coassociativity",
        "counit_left", "counit_right",
        "antipode_left", "antipode_right", "antipode_involutive", "antipode_star",
        "haar_positive", "haar_trace_one", "haar_left_invariant", "haar_right_invariant",
        "cancellation_left", "cancellation_right",
    ]
    assert list(AXIOM_ROWS) == list(verify_axioms(cz4).defects)


def _kp_idempotent_states(kp):
    """Cesàro limits of the states spread evenly over one block each: the
    counit, the three order-two subgroups and the Haar state."""
    out = []
    for block, n in enumerate(kp.algebra.block_dims):
        blocks = [np.zeros((m, m)) for m in kp.algebra.block_dims]
        blocks[block] = np.eye(n) / n
        seed = Functional(kp.algebra, kp.algebra.element(blocks))
        out.append(cesaro_limit(kp, seed, tol=1e-9, max_iter=10_000).limit)
    return out


BUILDS = {
    "C(Z4)": (lambda: function_algebra(cyclic(4)), lambda G: [i.functional for i in enumerate_function_algebra(G)]),
    "C(S3)": (lambda: function_algebra(symmetric(3)), lambda G: [i.functional for i in enumerate_function_algebra(G)]),
    "C*(D4)": (lambda: group_algebra(dihedral(4)), lambda G: [i.functional for i in enumerate_group_algebra(G)]),
    "KP": (kac_paljutkin, _kp_idempotent_states),
}


def _haar_supports(G, functionals):
    """The support of the right absolute value of every Haar idempotent among
    the functionals, as decompose hands it to quotient_by_support."""
    out = []
    for omega in functionals:
        s = support_projection(polar_decompose(omega).abs_r.density)
        if is_central(s, 1e-8):
            out.append(s)
    return out


@pytest.mark.parametrize("name", list(BUILDS))
def test_cached_corner_matches_fresh_build(name):
    """A quotient served from the per-group corner cache is the stored
    corner, with the structure, projection and axiom rows of a first call on
    a freshly built group."""
    build, idempotents = BUILDS[name]
    G = build()
    supports = _haar_supports(G, idempotents(G))
    assert len(supports) >= 5
    kept_sets = set()
    for s in supports:
        first = quotient_by_support(G, s)
        repeat = quotient_by_support(G, s)
        assert repeat is first is G.corners[repeat.kept_blocks]
        fresh_group = build()
        assert not fresh_group.corners
        fresh = quotient_by_support(fresh_group, s)
        kept_sets.add(repeat.kept_blocks)
        assert repeat.kept_blocks == fresh.kept_blocks
        assert np.array_equal(repeat.projection, fresh.projection)
        H, F = repeat.target, fresh.target
        assert H.algebra == F.algebra
        assert np.array_equal(H.comult, F.comult)
        assert np.array_equal(H.counit.covector, F.counit.covector)
        assert np.array_equal(H.antipode, F.antipode)
        assert np.array_equal(H.haar.covector, F.haar.covector)
        assert verify_axioms(H, 1e-8).passed
        assert verify_axioms(H, 1e-8).defects == verify_axioms(F, 1e-8).defects
    # one corner per distinct support, however many idempotents share it
    assert set(G.corners) == kept_sets
    # π keeps the coordinates of the kept blocks, so it is onto, on every corner decompose builds
    reports = [decompose(G, omega) for omega in idempotents(G)]
    subgroups = [rep.subgroup for rep in reports if rep.haar]
    assert subgroups and all(
        np.array_equal(sub.projection, np.eye(G.dim)[np.isin(G.algebra.coordinates[0], sub.kept_blocks)])
        for sub in subgroups)


def test_subgroup_character_rejects_a_state_that_is_not_the_subgroup_haar_state():
    """σ = 0.7δ₀ + 0.3δ₂ on C(Z4) has the central support {0, 2}, whose
    corner is the verified subgroup Z2, but σ is not its Haar state: at a
    tol loose enough for its idempotency defect 0.24, decompose measures
    the trace norm ‖π_*σ − h_H‖ = 0.4, and extract_subgroup_character
    names it as an input error."""
    G = function_algebra(cyclic(4))
    sigma = Functional.from_covector(G.algebra, np.array([0.7, 0, 0.3, 0]))
    assert verify_axioms(quotient_by_support(G, sigma.density.support).target, 1e-8).passed
    rep = decompose(G, sigma, 0.3)
    assert rep.subgroup.kept_blocks == (0, 2) and rep.subgroup_haar == pytest.approx(0.4, abs=1e-15)
    message = r"^absolute value is not the Haar state of its subgroup \(defect 4\.000e-01\)$"
    with pytest.raises(ValueError, match=message):
        extract_subgroup_character(G, sigma, 0.3)


def test_failed_kept_set_keeps_failing():
    G = function_algebra(cyclic(4))
    s = G.algebra.from_vec(np.array([1.0, 1.0, 0.0, 0.0]))
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError) as err:
            quotient_by_support(G, s)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert not G.corners


def test_each_corner_runs_the_haar_rows_once(monkeypatch):
    """Decomposing the 84 contractive idempotents of C(S4), all Haar, runs
    the Haar rows of verify_axioms once per corner, 30 kept-block sets, and
    not once per idempotent."""
    G = function_algebra(symmetric(4))
    calls = []
    haar_defects = qgroup._haar_defects
    monkeypatch.setattr(qgroup, "_haar_defects", lambda H: calls.append(H) or haar_defects(H))
    reports = [decompose(G, item.functional) for item in enumerate_function_algebra(G)]
    assert len(reports) == 84 and all(rep.haar for rep in reports)
    assert len(calls) == len(G.corners) == 30


def test_each_group_measures_its_axiom_rows_once(monkeypatch, tmp_path, capsys):
    """The 16 rows are measured once per group, in G.axiom_defects, and every
    guard reads them: KP's build check and quidem verify, a file: load and
    quidem verify, dual_pair after verify_axioms.  cstar:dn:4 is built from
    its irreps and measures only C*(D4).  A copy is a new group and measures
    its own rows, and a returned report is the caller's own copy."""
    calls = []
    structure_defects = qgroup._structure_defects
    monkeypatch.setattr(qgroup, "_structure_defects", lambda H: calls.append(H) or structure_defects(H))

    def measured_by_verify(spec):
        calls.clear()
        assert main(["verify", "--group", spec, "--json"]) == 0
        capsys.readouterr()
        return len(calls)

    save(builtin("kp"), tmp_path / "kp.qgspec")
    assert measured_by_verify("builtin:kp") == 1
    assert measured_by_verify(f"file:{tmp_path / 'kp.qgspec'}") == 1
    assert measured_by_verify("builtin:cstar:dn:4") == 1

    G = function_algebra(cyclic(4))
    calls.clear()
    report = verify_axioms(G)
    dual_pair(G)
    assert calls == [G]
    report.defects["coassociativity"] = 1.0
    assert verify_axioms(G).defects["coassociativity"] == 0.0

    comult = G.comult.copy()
    comult[:, 1] = 1.01 * comult[:, 1] + 1e-3 * comult[:, 0]
    broken = replace(G, comult=comult)
    assert not verify_axioms(broken).passed
    assert calls == [G, broken]
    assert verify_axioms(G).passed


class _ZeroFirstDraw:
    """A generator whose first commutant sample is zero: a scalar commutant
    element has one eigenspace, so the first split attempt must fail."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.draws = 0

    def standard_normal(self, size):
        self.draws += 1
        return np.zeros(size) if self.draws <= 2 else self.rng.standard_normal(size)


def test_wedderburn_retry_is_logged(caplog):
    # the left regular representation of S3 and its commutant, the right one
    table = symmetric(3)
    eye = np.eye(table.order)
    lt = np.array([eye[:, [table.op(g, h) for h in range(table.order)]] for g in range(table.order)])
    rt = np.array([eye[:, [table.op(h, g) for h in range(table.order)]] for g in range(table.order)])
    with caplog.at_level(logging.DEBUG, logger="quidem.wedderburn"):
        split = wedderburn.decompose(lt, rt, _ZeroFirstDraw(0))
    assert sorted(split.block_dims) == [1, 1, 2]
    [record] = caplog.records
    assert record.levelno == logging.DEBUG
    assert record.getMessage() == (
        "block decomposition attempt 1/12 failed: "
        "multiplicity does not match dimension (accidental degeneracy)"
    )
