"""Batch command-line front end: build or load a quantum group, run
verification / enumeration / decomposition / exploration / TRO reports, and
emit human tables or JSON with a process exit code reflecting pass/fail."""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import catalogue
from .algebra import CHECK_TOL, CP_FLOOR, STATE_TOL, Functional
from .convolution import cesaro_limit, left_conv_operator
from .groups import characters
from .idempotents import (
    _idempotency_defect,
    decompose,
    enumerate_function_algebra,
    enumerate_group_algebra,
    is_contractive_idempotent,
)
from .qgroup import (
    FiniteQuantumGroup,
    commutativity_defect,
    cocommutativity_defect,
    verify_axioms,
)
from .tro import (
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


@dataclass
class Check:
    name: str
    defect: float | None
    tol: float | None
    passed: bool
    note: str = ""


@dataclass
class Report:
    command: str
    inputs: dict
    checks: list[Check] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def add(self, name, passed, defect=None, tol=None, note=""):
        self.checks.append(Check(name, None if defect is None else float(defect), tol, bool(passed), note))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "passed": self.passed,
            "elapsed_seconds": self.elapsed,
            "info": self.info,
            "checks": [
                {
                    "name": c.name,
                    "defect": c.defect,
                    "tolerance": c.tol,
                    "passed": c.passed,
                    "note": c.note,
                }
                for c in self.checks
            ],
        }

    def render(self) -> str:
        width = max([len(c.name) for c in self.checks] + [20])
        lines = [f"command: {self.command}"]
        for key, value in self.inputs.items():
            lines.append(f"  {key}: {value}")
        for key, value in self.info.items():
            lines.append(f"  {key}: {value}")
        header = f"{'check'.ljust(width)}  {'defect':>12}  {'tol':>9}  result"
        lines += [header, "-" * len(header)]
        for c in self.checks:
            defect = f"{c.defect:.3e}" if c.defect is not None else "-"
            tol = f"{c.tol:.1e}" if c.tol is not None else "-"
            status = "pass" if c.passed else "FAIL"
            note = f"  {c.note}" if c.note else ""
            lines.append(f"{c.name.ljust(width)}  {defect:>12}  {tol:>9}  {status}{note}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}  ({self.elapsed:.2f}s)")
        return "\n".join(lines)


def _load_group(spec: str) -> FiniteQuantumGroup:
    if spec.startswith("builtin:"):
        return catalogue.builtin(spec[len("builtin:"):])
    if spec.startswith("file:"):
        return catalogue.load(spec[len("file:"):])
    raise ValueError(f"group source must be builtin:NAME or file:PATH, got {spec!r}")


def _element(G: FiniteQuantumGroup, text: str, spec: str) -> int:
    g = int(text)
    if not 0 <= g < G.table.order:
        raise ValueError(f"element {g} out of range 0..{G.table.order - 1} in functional source {spec!r}")
    return g


def _parse_functional(G: FiniteQuantumGroup, spec: str) -> Functional:
    """Functional sources: counit | haar | point:g | index:k |
    subgroup-character:H:k | coset-indicator:H:g | density:[[re,im],...]
    where H is a comma-separated list of element indices (closure taken)."""
    if spec == "counit":
        return G.counit
    if spec == "haar":
        return G.haar
    parts = spec.split(":")
    if parts[0] == "point" and len(parts) == 2:
        if G.kind not in ("function", "group"):
            raise ValueError("point:g requires a function or group algebra")
        values = np.eye(G.table.order)[_element(G, parts[1], spec)]
        if G.kind == "group":
            values = np.linalg.solve(G.lambda_basis.T, values)
        return Functional.from_covector(G.algebra, values)
    if parts[0] == "index" and len(parts) == 2:
        k = int(parts[1])
        items = _enumerate(G)
        if not 0 <= k < len(items):
            raise ValueError(f"index {k} out of range; enumeration has {len(items)} items")
        return items[k].functional
    if parts[0] == "subgroup-character" and len(parts) == 3:
        if G.kind != "function":
            raise ValueError("subgroup-character requires a function algebra")
        table = G.table
        subgroup = table.closure([_element(G, x, spec) for x in parts[1].split(",") if x != ""])
        sub_table, elems = table.subtable(subgroup)
        chars = characters(sub_table)
        k = int(parts[2])
        if not 0 <= k < len(chars):
            raise ValueError(f"character index {k} out of range ({len(chars)} characters)")
        cov = np.zeros(table.order, dtype=np.complex128)
        for pos, g in enumerate(elems):
            cov[g] = chars[k][pos] / len(elems)
        return Functional.from_covector(G.algebra, cov)
    if parts[0] == "coset-indicator" and len(parts) == 3:
        if G.kind != "group":
            raise ValueError("coset-indicator requires a group algebra")
        table = G.table
        subgroup = table.closure([_element(G, x, spec) for x in parts[1].split(",") if x != ""])
        g = _element(G, parts[2], spec)
        values = np.zeros(table.order)
        for h in subgroup:
            values[table.op(g, h)] = 1.0
        return Functional.from_covector(G.algebra, np.linalg.solve(G.lambda_basis.T, values))
    if parts[0] == "density":
        try:
            vec = np.array([complex(re, im) for re, im in json.loads(spec[len("density:"):])])
        except (TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise ValueError(f"density literal must be a list of [re, im] pairs in {spec!r} ({exc})") from exc
        if vec.shape != (G.dim,):
            raise ValueError(f"density literal must have {G.dim} entries")
        if not np.isfinite(vec).all():
            raise ValueError(f"density literal has a non-finite entry in {spec!r}")
        return Functional(G.algebra, G.algebra.from_vec(vec))
    raise ValueError(f"cannot parse functional source {spec!r}")


def _enumerate(G: FiniteQuantumGroup):
    if G.kind == "function":
        return enumerate_function_algebra(G)
    if G.kind == "group":
        return enumerate_group_algebra(G)
    raise ValueError("enumeration is only available for classical function/group algebras")


def cmd_verify(G: FiniteQuantumGroup, args, report: Report):
    axioms = verify_axioms(G, args.tol)
    for name, defect in sorted(axioms.defects.items()):
        report.add(f"axiom:{name}", defect <= args.tol, defect, args.tol)
    report.info["commutativity_defect"] = f"{commutativity_defect(G):.3e}"
    report.info["cocommutativity_defect"] = f"{cocommutativity_defect(G):.3e}"
    report.info["block_dims"] = list(G.algebra.block_dims)


def cmd_enumerate(G: FiniteQuantumGroup, args, report: Report):
    try:
        items = _enumerate(G)
    except ValueError:
        report.info["enumeration"] = (
            "Unsupported: exact enumeration exists only for classical function/group "
            "algebras; use the explore command with seed functionals instead"
        )
        return
    report.info["count"] = len(items)
    for k, item in enumerate(items):
        rep = decompose(G, item.functional, max(args.tol, CHECK_TOL))
        _add_contractive(report, G, item.functional, args, f"item[{k}] contractive idempotent",
                         note=f"{item.label} haar={rep.haar}")


def _add_contractive(report: Report, G, omega, args, name="contractive idempotent", note=None) -> bool:
    """Row for ‖ω⋆ω − ω‖ ≤ tol and ‖ω‖ = 1, with the defect the larger of the
    two deviations and the tolerance is_contractive_idempotent ran at."""
    tol = max(args.tol, STATE_TOL)
    ok = is_contractive_idempotent(G, omega, tol)
    if note is None:
        note = "" if ok else f"not a contractive idempotent (norm {omega.norm:.6f})"
    defect = max(_idempotency_defect(G, omega), abs(omega.norm - 1.0))
    report.add(name, ok, defect, tol, note=note)
    return ok


def _decompose_into(G, omega, args, report: Report):
    tol = max(args.tol, CHECK_TOL)
    if not _add_contractive(report, G, omega, args):
        return None
    rep = decompose(G, omega, tol)
    abs_defect = max(_idempotency_defect(G, rep.abs_r), _idempotency_defect(G, rep.abs_l))
    report.add("absolute values idempotent states", abs_defect <= tol, abs_defect, tol)
    report.add("reconstruction v.|w|_r", rep.roundtrip_r <= tol, rep.roundtrip_r, tol)
    report.add("reconstruction |w|_l.v", rep.roundtrip_l <= tol, rep.roundtrip_l, tol)
    report.add("group-like defect (right)", rep.defect_r <= tol, rep.defect_r, tol)
    report.add("group-like defect (left)", rep.defect_l <= tol, rep.defect_l, tol)
    report.info["haar"] = rep.haar
    if rep.haar:
        gap = (rep.abs_r - rep.abs_l).norm
        report.add("haar: |w|_r = |w|_l", gap <= tol, gap, tol)
        report.info["subgroup_block_dims"] = list(rep.subgroup.target.algebra.block_dims)
        report.info["character"] = [
            [round(float(z.real), 12), round(float(z.imag), 12)] for z in rep.character.vec
        ]
    tro_rep_checks(G, omega, args, report)
    return rep


def tro_rep_checks(G, omega, args, report: Report):
    tol = max(args.tol, CHECK_TOL)
    tro_rep = check_tro_expectation(G, omega, tol)
    for name, value in tro_rep.identity_residuals.items():
        report.add(f"mixed product {name}", value <= tol, value, tol)
    for name, value in tro_rep.expectation_residuals.items():
        report.add(f"tro {name}", value <= tol, value, tol)
    report.add("image is TRO", tro_rep.image_is_tro, tro_rep.image.tro_defect, tol)
    _expectation_rows(G, omega, linking_algebra(tro_rep.image, tol), tol, report)


def _expectation_rows(G, omega, link, tol, report: Report):
    """The five rows on the conditional expectation onto the linking algebra."""
    E = build_expectation(G, omega, tol)
    checks = expectation_checks(E, link)
    report.add("expectation idempotent", checks.idempotent <= tol, checks.idempotent, tol)
    report.add("expectation fixes linking algebra", checks.fixes_subalgebra <= tol, checks.fixes_subalgebra, tol)
    report.add("expectation bimodule", checks.bimodule <= tol, checks.bimodule, tol)
    cp = checks.choi_min_eigenvalue
    report.add("expectation completely positive", cp >= -CP_FLOOR, -cp, CP_FLOOR)
    report.add("expectation preserves haar weight", preserves_weight(E, tol), None, None)


def cmd_decompose(G: FiniteQuantumGroup, args, report: Report):
    omega = _parse_functional(G, args.functional)
    _decompose_into(G, omega, args, report)


def cmd_explore(G: FiniteQuantumGroup, args, report: Report):
    seed_fn = _parse_functional(G, args.functional)
    if seed_fn.norm > 1 + STATE_TOL:
        report.add("seed contractive", False, seed_fn.norm - 1.0, STATE_TOL,
                   note="seed functional must have norm at most 1")
        return
    report.add("seed contractive", True, max(0.0, seed_fn.norm - 1.0), STATE_TOL)
    tol = max(args.tol, CHECK_TOL)
    result = cesaro_limit(G, seed_fn, tol=tol, max_iter=args.max_iter)
    report.add("averaged convolution powers converged", result.converged, result.idempotency_defect, tol,
               note=f"{result.iterations} convolution ops, checkpoint N={result.checkpoint}")
    if not result.converged:
        return
    if result.limit.norm <= CHECK_TOL:
        report.info["limit"] = "zero functional (no nonzero idempotent along this seed)"
        return
    _decompose_into(G, result.limit, args, report)


def cmd_tro(G: FiniteQuantumGroup, args, report: Report):
    omega = _parse_functional(G, args.functional)
    tol = max(args.tol, CHECK_TOL)
    if not _add_contractive(report, G, omega, args):
        return
    X = image_subspace(left_conv_operator(G, omega))
    report.info["image_dim"] = X.dim
    report.add("image is TRO", is_tro(X, tol), X.tro_defect, tol)
    report.add("image nondegenerate", is_nondegenerate(X, tol), X.rank_deficit, tol)
    report.add("image right invariant", is_right_invariant(G, X, tol), None, None)
    link = linking_algebra(X, tol)
    report.info["linking_dims"] = list(link.corner_dims())
    report.add("linking corners right invariant",
               is_right_invariant(G, link.left, tol) and is_right_invariant(G, link.right, tol),
               None, None)
    _expectation_rows(G, omega, link, tol, report)
    recovery = recover_idempotent(G, X, tol)
    if recovery.ok:
        distance = (recovery.functional - omega).norm
        report.add("recovered idempotent matches", distance <= tol, distance, tol)
    else:
        report.add("recovered idempotent matches", False, None, None, note="; ".join(recovery.reasons))


COMMANDS = {
    "verify": cmd_verify,
    "enumerate": cmd_enumerate,
    "decompose": cmd_decompose,
    "explore": cmd_explore,
    "tro": cmd_tro,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quidem",
        description="Contractive idempotent functionals on finite quantum groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("verify", "check the quantum group axioms"),
        ("enumerate", "list all contractive idempotents of a classical catalogue group"),
        ("decompose", "polar-decompose and classify a contractive idempotent"),
        ("explore", "average convolution powers of a seed, then decompose the limit"),
        ("tro", "TRO/linking-algebra/expectation report for a contractive idempotent"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--group", required=True, help="builtin:NAME or file:PATH; builtins: "
                       "czn:N, cstar:zn:N, cstar:dn:N, cfun:sn:N, cstar:sn:N, kp")
        p.add_argument("--tol", type=float, default=STATE_TOL)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-iter", type=int, default=100_000, dest="max_iter")
        p.add_argument("--json", action="store_true", dest="as_json")
        if name in ("decompose", "explore", "tro"):
            p.add_argument("--functional", required=True,
                           help="counit | haar | point:g | index:k | subgroup-character:H:k "
                                "| coset-indicator:H:g | density:[[re,im],...]")
    return parser


def _bind_functional(argv: list[str]) -> list[str]:
    """Write ``--functional SPEC`` as ``--functional=SPEC``: argparse takes a
    SPEC that starts with "-" for an option and exits instead of reporting it."""
    out = list(argv)
    for i in reversed(range(len(out) - 1)):
        if out[i] == "--functional":
            out[i:i + 2] = [f"--functional={out[i + 1]}"]
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_bind_functional(sys.argv[1:] if argv is None else argv))
    report = Report(command=args.command, inputs={"group": args.group})
    if getattr(args, "functional", None):
        report.inputs["functional"] = args.functional
    start = time.perf_counter()
    try:
        group = _load_group(args.group)
        report.info["group"] = group.name or group.kind
        COMMANDS[args.command](group, args, report)
    except (ValueError, catalogue.QGSpecError) as exc:
        report.add("inputs valid", False, None, None, note=str(exc))
    report.elapsed = time.perf_counter() - start
    if args.as_json:
        print(json.dumps(report.to_json(), indent=1))
    else:
        print(report.render())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
