"""End-to-end command line behaviour: exit codes, JSON output, error paths."""

import contextlib
import functools
import io
import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quidem
from quidem import builtin, convolve, polar_decompose
from quidem.algebra import CP_FLOOR
from quidem.catalogue import to_document
from quidem.cli import main
from quidem.idempotents import enumerate_group_algebra
from quidem.tro import ExpectationCheck


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize("argv, code", [
    (["enumerate", "--group", "builtin:cstar:dn:4", "--json"], 0),
    (["decompose", "--group", "builtin:czn:4", "--functional", "point:1"], 1),
])
def test_closed_stdout_ends_quietly(argv, code):
    """A reader that closes stdout before the report is printed (as `| head`
    does) gets no traceback: stderr stays empty and the exit code is the
    report's."""
    read, write = os.pipe()
    os.close(read)
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(quidem.__file__).parents[1])}
    try:
        done = subprocess.run([sys.executable, "-m", "quidem", *argv], stdout=write, stderr=subprocess.PIPE,
                              env=env, timeout=120)
    finally:
        os.close(write)
    assert done.stderr == b"" and done.returncode == code


def test_verify_kp(capsys):
    code, out = run(capsys, "verify", "--group", "builtin:kp")
    assert code == 0
    assert "result: PASS" in out


def test_verify_czn(capsys):
    code, out = run(capsys, "verify", "--group", "builtin:czn:4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert any(c["name"] == "axiom:coassociativity" for c in doc["checks"])


def test_verify_corrupted_file_fails_with_named_axiom(capsys, tmp_path, cz4):
    doc = to_document(cz4)
    doc["comult"][0][0] = [0.25, 0.0]
    path = tmp_path / "broken.qgspec"
    path.write_text(json.dumps(doc))
    with pytest.warns(UserWarning):
        code, out = run(capsys, "verify", "--group", f"file:{path}", "--json")
    assert code == 1
    report = json.loads(out)
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed and all(name.startswith("axiom:") for name in failed)


def test_enumerate_czn4(capsys):
    code, out = run(capsys, "enumerate", "--group", "builtin:czn:4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["info"]["count"] == 7


def test_enumerate_dihedral_flags_non_haar(capsys):
    code, out = run(capsys, "enumerate", "--group", "builtin:cstar:dn:4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["info"]["count"] == 35
    notes = [c["note"] for c in doc["checks"]]
    assert any("haar=False" in n for n in notes)
    assert any("haar=True" in n for n in notes)


def test_enumerate_kp_unsupported(capsys):
    code, out = run(capsys, "enumerate", "--group", "builtin:kp")
    assert code == 0
    assert "Unsupported" in out


def test_enumeration_error_on_a_supported_group_fails_its_report(capsys, monkeypatch):
    """An error raised inside the enumeration of a classical group is a
    failing inputs valid row with exit code 1, not an Unsupported note."""
    def broken(G):
        raise ValueError("broken enumeration")
    monkeypatch.setattr(quidem.cli, "enumerate_group_algebra", broken)
    code, out = run(capsys, "enumerate", "--group", "builtin:cstar:dn:4", "--json")
    doc = json.loads(out)
    assert code == 1 and "enumeration" not in doc["info"]
    assert [(c["name"], c["passed"], c["note"]) for c in doc["checks"]] == [("inputs valid", False, "broken enumeration")]


def test_decompose_counit(capsys):
    code, out = run(capsys, "decompose", "--group", "builtin:czn:4", "--functional", "counit")
    assert code == 0
    assert "result: PASS" in out


def test_decompose_subgroup_character(capsys):
    code, out = run(
        capsys,
        "decompose", "--group", "builtin:czn:4",
        "--functional", "subgroup-character:2:0", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["info"]["haar"] is True
    assert doc["info"]["subgroup_block_dims"] == [1, 1]
    # the sign character of the subgroup {0, 2}
    assert doc["info"]["character"] == [[1.0, 0.0], [-1.0, 0.0]]


def test_decompose_point_source_on_a_group_algebra(capsys, monkeypatch):
    """point:0 on C*(D4) is λ_e ↦ 1, λ_g ↦ 0 otherwise, solved from the
    λ basis: the counit of the dual, the indicator of the coset {e}, so a
    Haar idempotent whose covector is that enumeration item's."""
    parsed, parse = [], quidem.cli._parse_functional

    def spy(G, spec):
        parsed.append(parse(G, spec))
        return parsed[-1]
    monkeypatch.setattr(quidem.cli, "_parse_functional", spy)
    code, out = run(capsys, "decompose", "--group", "builtin:cstar:dn:4", "--functional", "point:0", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["passed"] and doc["info"]["haar"] is True
    G = builtin("cstar:dn:4")
    item = next(item for item in enumerate_group_algebra(G) if item.coset == frozenset({G.table.identity}))
    assert np.abs(parsed[0].covector - item.functional.covector).max() <= 1e-12


@pytest.mark.parametrize("name", ["czn:6", "cfun:sn:3", "cfun:sn:4", "cstar:dn:4", "cstar:sn:4"])
def test_subgroup_sources_read_the_enumeration_items(name):
    """subgroup-character:H:k is the k-th item of H, coset-indicator:H:g the
    item of H whose coset holds g, and point:g on C*(G) the item whose coset
    is {g}, also given as coset-indicator::g: each covector equals the full
    enumeration's, byte for byte, for every subgroup, index and element."""
    source = quidem.cli._functional_source
    G = builtin(name)
    items = quidem.cli._enumerate(G)

    def same(spec, item):
        return source(G, spec).covector.tobytes() == item.functional.covector.tobytes()
    for subgroup in G.table.subgroups:
        own = [item for item in items if item.subgroup == subgroup]
        H = ",".join(map(str, sorted(subgroup)))   # all of H's elements, which close to H
        if G.kind == "function":
            assert own and all(same(f"subgroup-character:{H}:{k}", item) for k, item in enumerate(own))
            with pytest.raises(ValueError, match=f"character index {len(own)} out of range"):
                source(G, f"subgroup-character:{H}:{len(own)}")
        else:
            assert all(same(f"coset-indicator:{H}:{g}", item) for item in own for g in item.coset)
    if G.kind == "group":
        for g in range(G.table.order):
            item = next(item for item in items if item.coset == frozenset({g}))
            assert same(f"point:{g}", item) and same(f"coset-indicator::{g}", item)


@pytest.mark.parametrize("name, spec, subgroup", [
    ("cfun:sn:4", "subgroup-character:1,2:1", {0, 1, 2, 3, 4, 5}),
    ("cstar:sn:4", "coset-indicator:1:5", {0, 1}),
    ("cstar:sn:4", "point:5", {0}),
])
def test_subgroup_sources_build_only_their_own_items(monkeypatch, name, spec, subgroup):
    """A source builds the items of the one subgroup it names (for point:g
    the trivial one): the characters it takes and the cosets it splits are
    of that subgroup alone."""
    G = builtin(name)
    seen = []

    def spy(fn):
        def wrapper(table, sub):
            seen.append(sub)
            return fn(table, sub)
        return wrapper
    monkeypatch.setattr(quidem.idempotents, "characters", spy(quidem.idempotents.characters))
    monkeypatch.setattr(type(G.table), "left_cosets", spy(type(G.table).left_cosets))
    quidem.cli._functional_source(G, spec)
    assert seen == [frozenset(subgroup)]


def test_decompose_rejects_non_idempotent(capsys):
    code, out = run(
        capsys,
        "decompose", "--group", "builtin:czn:4", "--functional", "point:1", "--json",
    )
    assert code == 1
    doc = json.loads(out)
    assert not doc["passed"]
    bad = [c for c in doc["checks"] if not c["passed"]]
    assert "not a contractive idempotent" in bad[0]["note"]


@pytest.mark.parametrize("command", ["decompose", "tro"])
def test_loose_tol_rejects_idempotent_below_norm_one(capsys, command):
    """0.3·δ₀ on C(Z4) is idempotent within 0.25 but has norm 0.3: the report
    fails its contractive idempotent row with the defect |‖ω‖ − 1| = 0.7."""
    code = main([command, "--group", "builtin:czn:4", "--functional",
                 "density:[[0.3,0],[0,0],[0,0],[0,0]]", "--tol", "0.25", "--json"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    row = _rows(json.loads(out))["contractive idempotent"]
    assert not row["passed"]
    assert row["defect"] == pytest.approx(0.7, abs=1e-12)


def test_explore_point_seed(capsys):
    code, out = run(
        capsys,
        "explore", "--group", "builtin:czn:6", "--functional", "point:1",
        "--max-iter", "10000", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"]
    assert doc["info"]["haar"] is True
    assert doc["info"]["subgroup_block_dims"] == [1] * 6
    note = _rows(doc)["averaged convolution powers converged"]["note"]
    assert note == "4 convolution ops, mean-ergodic projection"


def test_explore_idempotent_seed_is_fixed(capsys):
    code, out = run(capsys, "explore", "--group", "builtin:czn:4", "--functional", "haar", "--json")
    assert code == 0
    doc = json.loads(out)
    note = [c for c in doc["checks"] if c["name"].startswith("averaged")][0]["note"]
    assert note == "1 convolution ops"


@pytest.mark.parametrize("max_iter", ["0", "-5"])
def test_explore_empty_budget_is_named(capsys, max_iter):
    """A --max-iter below 1 is an input error, not an unconverged limit."""
    code = main(["explore", "--group", "builtin:czn:6", "--functional", "point:1",
                 "--max-iter", max_iter, "--json"])
    captured = capsys.readouterr()
    rows = json.loads(captured.out)["checks"]
    assert code == 1 and captured.err == ""
    failed = [row for row in rows if not row["passed"]]
    assert [row["name"] for row in failed] == ["inputs valid"]
    assert "max_iter" in failed[0]["note"]


def test_explore_rejects_non_contractive_seed(capsys):
    code, out = run(
        capsys,
        "explore", "--group", "builtin:czn:4",
        "--functional", "density:[[2.0,0],[0,0],[0,0],[0,0]]", "--json",
    )
    assert code == 1
    doc = json.loads(out)
    assert not doc["passed"]


def test_tro_report_mu0(capsys):
    code, out = run(
        capsys,
        "tro", "--group", "builtin:czn:4",
        "--functional", "index:5", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["info"]["image_dim"] in (1, 2, 4)
    assert doc["info"]["linking_dims"]
    assert doc["passed"]
    row = _rows(doc)["expectation fixes linking algebra"]
    assert row["passed"] and row["defect"] <= row["tolerance"]


def test_tro_coset_indicator(capsys):
    code, out = run(
        capsys,
        "tro", "--group", "builtin:cstar:dn:4",
        "--functional", "coset-indicator:4:1", "--json",
    )
    assert code == 0
    assert json.loads(out)["passed"]


def test_tro_and_nondegeneracy_rows_are_measured(capsys):
    """"image is TRO" reports the largest triple-product residual, "image
    nondegenerate" the rank deficit, the two invariance rows the residual of
    R_ν(x) against the subspace (the larger of the two corners) and the weight
    row max |E_iiᵀh − h|, each with its tolerance: every row of the report
    is measured."""
    code, out = run(capsys, "tro", "--group", "builtin:kp", "--functional", "haar", "--json")
    assert code == 0
    doc = json.loads(out)
    rows = _rows(doc)
    for name in ("image is TRO", "image nondegenerate", "image right invariant",
                 "linking corners right invariant", "expectation preserves haar weight"):
        assert rows[name]["defect"] is not None and rows[name]["tolerance"] == 1e-8, rows[name]
        assert rows[name]["passed"] and rows[name]["defect"] <= rows[name]["tolerance"]
    assert rows["image nondegenerate"]["defect"] == 0.0
    assert all(row["defect"] is not None and row["tolerance"] is not None for row in doc["checks"])


@pytest.mark.parametrize("command", ["decompose", "tro"])
def test_one_analysis_computes_each_fact_once(capsys, monkeypatch, command):
    """Every row of one command reads one Analysis.  Both commands check ω,
    |ω|_r, |ω|_l and ω̄ for idempotency once each: the guard checks ω, and
    the expectation row reads the four entries of the linking functional,
    of which decompose has checked |ω|_r and |ω|_l before; tro also checks
    the recovered functional.  is_contractive_idempotent, the row's verdict and every
    guard, reads those defects (G.idempotency) and is asked about nothing
    else; and
    G.left_matrix runs once per covector of ω, |ω|_r and |ω|_l, plus ω̄ (the
    fourth entry of the linking functional) and the recovered functional.
    invariance_defect runs in tro only, once per subspace: on the image X
    and on the corners ⟨XX*⟩ and ⟨X*X⟩ of its linking algebra, whose stages
    the recovery reads; X* has X's defect and is not measured.  The
    bimodule commutators are multiplied out once, for the expectation rows
    and, in decompose, the mixed-product and TRO rows."""
    import quidem.cli
    import quidem.convolution
    import quidem.idempotents
    import quidem.tro
    from quidem.cli import _enumerate
    from quidem.qgroup import FiniteQuantumGroup
    from quidem.tro import OperatorSubspace

    G = builtin("cstar:dn:4")   # built before the spies: its verification takes left matrices too
    omega = _enumerate(G)[12].functional
    image = OperatorSubspace.from_spanning(G.algebra, G.left_matrix(omega.covector).T)
    parts = polar_decompose(omega)
    named = {"ω": omega, "|ω|_r": parts.abs_r, "|ω|_l": parts.abs_l, "ω̄": omega.conjugate()}
    calls = {"idempotency": [], "contractive": [], "left_matrix": []}

    def spy(key, fn, covector):
        def wrapper(*args):
            calls[key].append(covector(args[1]))
            return fn(*args)
        return wrapper

    def names(key):
        """The functional of each call's covector; the recovered one only
        approximates ω, so it is "other"."""
        return [next((name for name, f in named.items() if np.array_equal(cov, f.covector)), "other")
                for cov in calls[key]]

    monkeypatch.setattr(quidem.cli, "_load_group", lambda spec: G)
    monkeypatch.setattr(FiniteQuantumGroup, "left_matrix",
                        spy("left_matrix", FiniteQuantumGroup.left_matrix, lambda cov: cov))
    kernel_idempotency = quidem.convolution._idempotency_defects
    monkeypatch.setattr(quidem.convolution, "_idempotency_defects",
                        lambda G, fs: calls["idempotency"].extend(f.covector for f in fs) or kernel_idempotency(G, fs))
    contractive = spy("contractive", quidem.idempotents.is_contractive_idempotent, lambda f: f.covector)
    for module in (quidem.idempotents, quidem.tro, quidem.cli):
        monkeypatch.setattr(module, "is_contractive_idempotent", contractive, raising=False)
    measured, invariance_defect = [], quidem.tro.invariance_defect
    for module in (quidem.tro, quidem.cli):
        monkeypatch.setattr(module, "invariance_defect", lambda H, X: measured.append(X) or invariance_defect(H, X),
                            raising=False)
    kernel, commutators = [], quidem.tro._commutators
    monkeypatch.setattr(quidem.tro, "_commutators", lambda *args: kernel.append(args) or commutators(*args))
    code, _ = run(capsys, command, "--group", "builtin:cstar:dn:4", "--functional", "index:12", "--json")
    assert code == 0
    assert len(kernel) == 1
    recovered = ["other"] if command == "tro" else []
    assert names("idempotency") == (["ω", "|ω|_r", "|ω|_l", "ω̄"] if command == "decompose"
                                    else ["ω", "|ω|_r", "ω̄", "|ω|_l", *recovered])
    assert set(names("contractive")) == {"ω", *recovered}
    assert sorted(names("left_matrix")) == sorted(["ω", "|ω|_r", "|ω|_l", "ω̄", *recovered])
    if command == "decompose":
        assert measured == []
    else:
        X, *corners = measured
        assert X.equals(image) and len(corners) == 2
        assert all(c is span for c, span in zip(corners, X.product_spans))


def test_bad_group_spec(capsys):
    code, out = run(capsys, "verify", "--group", "builtin:bogus")
    assert code == 1
    assert "inputs valid" in out


@pytest.mark.parametrize("group, message", [
    ("czn:0", "cyclic requires n >= 1"),
    ("cstar:zn:0", "cyclic requires n >= 1"),
    ("cfun:sn:-1", "symmetric requires n >= 1"),
    ("cstar:sn:0", "symmetric requires n >= 1"),
])
def test_empty_group_family_is_an_invalid_input(capsys, group, message):
    """A family index below 1 fails only "inputs valid", with the family's
    message, exit code 1 and nothing on stderr."""
    code = main(["verify", "--group", f"builtin:{group}", "--json"])
    captured = capsys.readouterr()
    rows = json.loads(captured.out)["checks"]
    assert code == 1 and captured.err == ""
    assert [(row["name"], row["passed"]) for row in rows] == [("inputs valid", False)]
    assert rows[0]["note"] == f"invalid builtin spec {group!r}: {message}"


@pytest.mark.parametrize("name, reason", [("missing.qgspec", "No such file or directory"), ("", "Is a directory")])
def test_unreadable_document_is_an_invalid_input(capsys, tmp_path, name, reason):
    """A file: path that cannot be opened (missing, or a directory) fails only
    "inputs valid", naming the path and the reason, with nothing on stderr."""
    path = tmp_path / name
    code = main(["verify", "--group", f"file:{path}", "--json"])
    captured = capsys.readouterr()
    rows = json.loads(captured.out)["checks"]
    assert code == 1 and captured.err == ""
    assert [(row["name"], row["passed"]) for row in rows] == [("inputs valid", False)]
    assert rows[0]["note"] == f"{path}: cannot read ({reason})"


@pytest.mark.parametrize("content, reason", [
    (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
    (b"\xff\xfe{}", "can't decode byte 0xff in position 0"),
], ids=["deep-nesting", "not-utf-8"])
def test_undecodable_document_is_an_invalid_input(capsys, tmp_path, content, reason):
    """A file: document nested too deeply for the JSON decoder, or not UTF-8
    text, fails only "inputs valid", naming the path, with nothing on stderr."""
    path = tmp_path / "undecodable.qgspec"
    path.write_bytes(content)
    code = main(["verify", "--group", f"file:{path}", "--json"])
    captured = capsys.readouterr()
    rows = json.loads(captured.out)["checks"]
    assert code == 1 and captured.err == ""
    assert [(row["name"], row["passed"]) for row in rows] == [("inputs valid", False)]
    assert rows[0]["note"].startswith(f"{path}: cannot decode (") and reason in rows[0]["note"]


def test_reports_are_deterministic(capsys):
    def snapshot():
        code, out = run(
            capsys,
            "decompose", "--group", "builtin:cstar:dn:4",
            "--functional", "index:7", "--json",
        )
        doc = json.loads(out)
        doc.pop("elapsed_seconds")
        return code, doc

    assert snapshot() == snapshot()


def _rows(doc):
    return {c["name"]: c for c in doc["checks"]}


def _expected_tolerance(name, tol):
    """The tolerance a CLI row reports at --tol tol: the axiom rows take tol
    as given, the contractive idempotent rows floor it at 1e-9, the seed row
    and the completely positive row show their fixed 1e-9, and every other
    measured row floors tol at 1e-8."""
    if name.startswith("axiom:"):
        return tol
    if name == "seed contractive" or name == "expectation completely positive":
        return 1e-9
    if "contractive idempotent" in name:
        return max(tol, 1e-9)
    return max(tol, 1e-8)


_ROW_ARGV = [
    ("decompose", "--group", "builtin:czn:4", "--functional", "index:5"),
    ("decompose", "--group", "builtin:cstar:dn:4", "--functional", "index:12"),
    ("decompose", "--group", "builtin:czn:4", "--functional", "point:1"),
    ("tro", "--group", "builtin:czn:4", "--functional", "point:1"),
    ("enumerate", "--group", "builtin:czn:4"),
    ("tro", "--group", "builtin:cstar:dn:4", "--functional", "index:12"),
    ("explore", "--group", "builtin:czn:6", "--functional", "point:1"),
    ("explore", "--group", "builtin:kp", "--functional", "counit"),
    ("verify", "--group", "builtin:czn:4"),
    ("verify", "--group", "builtin:kp"),
]


@pytest.mark.parametrize("argv, tol", [
    pytest.param(argv, tol, id=f"argv{i}" if tol == "1e-20" else f"argv{i}-tol{tol}")
    for tol in ("1e-20", "1e-6") for i, argv in enumerate(_ROW_ARGV)
])
def test_rows_show_the_tolerance_they_were_checked_at(capsys, argv, tol):
    """A row with a defect and a tolerance passes exactly when the defect is
    within that tolerance, and shows the tolerance its command checks it at:
    --tol below a library floor shows the floor."""
    code, out = run(capsys, *argv, "--tol", tol, "--json")
    doc = json.loads(out)
    assert any(row["defect"] is not None for row in doc["checks"])
    for row in doc["checks"]:
        if row["defect"] is None:
            assert row["tolerance"] is None, row
            continue
        assert row["tolerance"] == _expected_tolerance(row["name"], float(tol)), row
        assert row["passed"] == (row["defect"] <= row["tolerance"]), row
    assert code == (0 if doc["passed"] else 1)


@pytest.mark.parametrize("scale", [0.5, 1.0, 1.5])
def test_cp_row_agrees_with_expectation_check_at_the_floor(capsys, monkeypatch, scale):
    """The CLI's completely positive row judges the least Choi eigenvalue
    against the one CP_FLOOR, on both sides of it."""
    import quidem.tro

    choi_min = -CP_FLOOR * scale
    check = ExpectationCheck(idempotent=0.0, fixes_subalgebra=0.0, bimodule=0.0,
                             choi_min_eigenvalue=choi_min)
    monkeypatch.setattr(quidem.tro.Analysis, "checks", check)
    code, out = run(capsys, "tro", "--group", "builtin:czn:4", "--functional", "haar", "--json")
    row = _rows(json.loads(out))["expectation completely positive"]
    assert row["defect"] == -choi_min and row["tolerance"] == CP_FLOOR
    assert row["passed"] == (scale <= 1.0)
    assert code == (0 if scale <= 1.0 else 1)


@pytest.mark.parametrize("command", ["tro", "decompose"])
def test_image_that_is_not_a_tro_fails_its_row_and_the_rest_is_measured(capsys, monkeypatch, command):
    """When the image fails the TRO check, the "image is TRO" row is the one
    verdict on it: the run fails on that row, no "inputs valid" row stops the
    report, and the expectation rows on the linking algebra are measured."""
    import quidem.cli
    import quidem.tro

    monkeypatch.setattr(quidem.cli, "is_tro", lambda X, tol=1e-8: False)
    monkeypatch.setattr(quidem.tro, "is_tro", lambda X, tol=1e-8: False)
    code, out = run(capsys, command, "--group", "builtin:czn:4", "--functional", "haar", "--json")
    rows = _rows(json.loads(out))
    assert code == 1
    assert [name for name, row in rows.items() if not row["passed"]] == ["image is TRO"]
    assert "inputs valid" not in rows
    for name in ("expectation idempotent", "expectation fixes linking algebra", "expectation bimodule",
                 "expectation completely positive", "expectation preserves haar weight"):
        assert rows[name]["defect"] is not None and rows[name]["passed"], name


@pytest.mark.parametrize("command", ["verify", "tro"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_malformed_tolerance_is_named(capsys, command, tol):
    """A --tol that is not a finite number at least 0 is an input error, not
    a report whose every row fails (nan, -1) or passes (inf)."""
    argv = ["--functional", "haar"] if command == "tro" else []
    code = main([command, "--group", "builtin:czn:4", *argv, "--tol", tol, "--json"])
    captured = capsys.readouterr()
    rows = json.loads(captured.out)["checks"]
    assert code == 1 and captured.err == ""
    assert [(row["name"], row["passed"]) for row in rows] == [("inputs valid", False)]
    assert "--tol" in rows[0]["note"]


def _strict_json(text):
    """json.loads refusing NaN and Infinity, which strict JSON does not have."""
    def refuse(constant):
        raise ValueError(f"{constant} in a JSON report")
    return json.loads(text, parse_constant=refuse)


def _scaled_document(G, key, scale):
    doc = to_document(G)
    pairs = doc[key] if key in ("counit", "haar") else [pair for row in doc[key] for pair in row]
    for pair in pairs:
        pair[:] = [pair[0] * scale, pair[1] * scale]
    return doc


@pytest.mark.parametrize("command", ["decompose", "tro", "explore"])
@pytest.mark.parametrize("value", ["1e155", "1e308"])
def test_overflowing_density_is_an_invalid_input(capsys, command, value):
    """A finite density whose ω⋆ω is beyond double precision (‖ω‖² = inf) is
    an input error: one failing "inputs valid" row, strict JSON, and no
    RuntimeWarning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([command, "--group", "builtin:czn:4", "--functional",
                     f"density:[[{value},0],[0,0],[0,0],[0,0]]", "--json"])
    captured = capsys.readouterr()
    rows = _strict_json(captured.out)["checks"]
    assert code == 1 and captured.err == ""
    assert [(row["name"], row["passed"]) for row in rows] == [("inputs valid", False)]
    assert "double precision" in rows[0]["note"]


@pytest.mark.parametrize("key, scale, argv", [
    ("comult", 1e200, ["verify"]),
    ("antipode", 1e300, ["verify"]),
    ("comult", 1e200, ["tro", "--functional", "counit"]),
    ("haar", 1e200, ["tro", "--functional", "haar"]),
])
def test_overflowing_document_is_an_invalid_input(capsys, tmp_path, key, scale, argv):
    """A file: document scaled so that its axiom check overflows, or with a
    Haar functional too large for ω⋆ω, gives one failing "inputs valid" row
    and strict JSON, with no RuntimeWarning.  The Haar document loads, and
    warns that its Haar rows fail."""
    path = tmp_path / "scaled.qgspec"
    path.write_text(json.dumps(_scaled_document(builtin("czn:4"), key, scale)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([argv[0], "--group", f"file:{path}", *argv[1:], "--json"])
    captured = capsys.readouterr()
    rows = _strict_json(captured.out)["checks"]
    assert code == 1 and captured.err == ""
    assert [(row["name"], row["passed"]) for row in rows] == [("inputs valid", False)]
    assert [str(w.message).split(":")[0] for w in caught] == (["loaded quantum group fails axioms"]
                                                               if key == "haar" else [])


def test_absolute_values_row_is_measured(capsys):
    code, out = run(
        capsys,
        "decompose", "--group", "builtin:cstar:dn:4", "--functional", "index:12", "--json",
    )
    assert code == 0
    row = _rows(json.loads(out))["absolute values idempotent states"]
    G = builtin("cstar:dn:4")
    from quidem.cli import _enumerate

    parts = polar_decompose(_enumerate(G)[12].functional)
    expected = max((convolve(G, s, s) - s).norm for s in (parts.abs_r, parts.abs_l))
    assert row["defect"] == pytest.approx(expected, abs=1e-15)
    assert row["tolerance"] == 1e-8 and row["passed"]


def test_character_prints_plain_floats(capsys):
    code, out = run(capsys, "decompose", "--group", "builtin:czn:4", "--functional", "haar")
    assert code == 0
    assert "np.float64" not in out
    assert "character: [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]" in out


def _input_error(group, spec):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["decompose", "--group", f"builtin:{group}", "--functional", spec, "--json"])
    doc = json.loads(out.getvalue())
    assert code == 1
    assert [c["name"] for c in doc["checks"]] == ["inputs valid"]
    assert not doc["checks"][0]["passed"]
    return doc["checks"][0]["note"]


@pytest.mark.parametrize("group, spec", [
    ("czn:4", "point:99"),
    ("czn:4", "point:-1"),
    ("cstar:zn:4", "point:-1"),
    ("czn:4", "subgroup-character:99:0"),
    ("cstar:zn:4", "coset-indicator:0:99"),
    ("cstar:zn:4", "coset-indicator:-1:0"),
    ("czn:4", "density:[1,2,3,4]"),
    ("czn:4", "density:[[1,0],[0,0],[0,0],[NaN,0]]"),
    ("czn:4", "density:[[true,false],[false,false],[false,false],[false,false]]"),
    ("czn:4", "-:"),
    ("czn:4", "-point:0"),
    ("czn:4", "--functional"),
])
def test_malformed_functional_is_named(group, spec):
    assert repr(spec) in _input_error(group, spec)


_SOURCES = ["counit", "haar", "point", "index", "subgroup-character", "coset-indicator", "density"]
_OUT_OF_RANGE = st.integers().filter(lambda k: not 0 <= k < 4)
_MALFORMED = st.one_of(
    st.text(max_size=20).filter(lambda spec: spec.split(":")[0] not in _SOURCES),
    st.builds("{}:{}".format, st.sampled_from(_SOURCES),
              st.text(st.characters(blacklist_categories=("Nd",)), max_size=12)),
    st.builds("point:{}".format, _OUT_OF_RANGE),
    st.builds("index:{}".format, st.integers().filter(lambda k: not 0 <= k < 7)),
    st.builds("subgroup-character:{}:{}".format, _OUT_OF_RANGE, st.integers(0, 3)),
    st.builds("coset-indicator:{}:{}".format, _OUT_OF_RANGE, st.integers(0, 3)),
    st.builds("coset-indicator:{}:{}".format, st.integers(0, 3), _OUT_OF_RANGE),
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["czn:4", "cstar:zn:4"]), _MALFORMED)
def test_malformed_functional_never_raises(group, spec):
    _input_error(group, spec)


@pytest.mark.parametrize("group, density, tol, row, defect", [
    ("czn:4", "[[0.5,0],[0.001,0],[-0.5,0],[0,0]]", "1e-2", "group-like defect (right)", 3.169e-2),
    ("cstar:dn:3", "[[0.333333,0],[0,0],[-0.333333,0],[0.57735,0],[0.001,0],[0,0]]", "3e-2",
     "haar: |w|_r = |w|_l", 1.153),
], ids=["group-like", "haar-gap"])
def test_near_idempotent_fails_its_measured_row(capsys, group, density, tol, row, defect):
    """A near-idempotent that passes the contractive row at a loose --tol is
    judged by the decomposition rows: the named row fails with its measured
    defect, the run exits 1, and no "inputs valid" row or traceback stops it."""
    code = main(["decompose", "--group", f"builtin:{group}", "--functional", f"density:{density}",
                 "--tol", tol, "--json"])
    captured = capsys.readouterr()
    rows = _rows(json.loads(captured.out))
    assert code == 1 and captured.err == ""
    assert "inputs valid" not in rows
    assert rows["contractive idempotent"]["passed"]
    assert not rows[row]["passed"] and rows[row]["defect"] == pytest.approx(defect, rel=1e-3)


@pytest.mark.parametrize("density, passed, defect", [
    ("[[0.49,0],[0,0],[0.51,0],[0,0]]", True, 2e-2),
    ("[[0.24,0],[0.24,0],[0.24,0],[0.26,0]]", False, 4e-2),
], ids=["within-tol", "beyond-tol"])
def test_haar_state_of_the_subgroup_is_a_measured_row(capsys, density, passed, defect):
    """Near the Haar state of a subgroup of C(Z4), at --tol 3e-2: the trace
    norm ‖π_*|ω|_r − h_H‖ is a row judged at --tol like the others, so the
    run reaches the rows that fail (the mixed products), exits 1 and has no
    "inputs valid" row."""
    code = main(["decompose", "--group", "builtin:czn:4", "--functional", f"density:{density}",
                 "--tol", "3e-2", "--json"])
    captured = capsys.readouterr()
    rows = _rows(json.loads(captured.out))
    assert code == 1 and captured.err == ""
    assert "inputs valid" not in rows and not rows["mixed product left_absorb"]["passed"]
    row = rows["haar: pi_*|w|_r = h_H"]
    assert row["passed"] == passed and row["tolerance"] == 3e-2 and row["defect"] == pytest.approx(defect, rel=1e-9)
    assert rows["haar: u = pi(v) group-like"]["passed"] and rows["haar: w = h_H(pi(.)u)"]["passed"]


_PERTURBED_GROUPS = ["czn:6", "cfun:sn:3", "cstar:dn:3", "cstar:dn:4"]


@functools.lru_cache(maxsize=None)
def _item_densities(group):
    from quidem.cli import _enumerate

    return tuple(item.functional.density.vec for item in _enumerate(builtin(group)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_PERTURBED_GROUPS), st.integers(0, 100), st.sampled_from([1e-7, 1e-5, 1e-3, 1e-2]),
       st.sampled_from([3, 30, 1000]), st.sampled_from(["decompose", "explore", "tro"]), st.integers(0, 2**32 - 1))
def test_perturbed_idempotent_never_raises(group, index, eps, factor, command, seed):
    """An enumerated contractive idempotent plus ε times a random complex
    vector, at --tol factor·ε: main returns a report of measured rows,
    with no "inputs valid" row, never raises, and exits 1 exactly when
    some row fails."""
    densities = _item_densities(group)
    base, rng = densities[index % len(densities)], np.random.default_rng(seed)
    vec = base + eps * (rng.standard_normal(base.shape) + 1j * rng.standard_normal(base.shape))
    literal = json.dumps([[float(z.real), float(z.imag)] for z in vec])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, "--group", f"builtin:{group}", "--functional", f"density:{literal}",
                     "--tol", repr(factor * eps), "--json"])
    rows = json.loads(out.getvalue())["checks"]
    assert rows and code == (0 if all(row["passed"] for row in rows) else 1)
    assert "inputs valid" not in [row["name"] for row in rows]
