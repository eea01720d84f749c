"""Batch command-line front end: build or load a quantum group, run
verification / enumeration / decomposition / exploration / TRO reports, and
emit human tables or JSON with a process exit code reflecting pass/fail."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import catalogue
from .algebra import CHECK_TOL, CP_FLOOR, STATE_TOL, Functional
from .convolution import cesaro_limit
from .idempotents import (contractive_defect, enumerate_function_algebra, enumerate_group_algebra,
                          is_contractive_idempotent, is_haar_idempotent)
from .qgroup import FiniteQuantumGroup, cocommutativity_defect, commutativity_defect, verify_axioms
from .tro import Analysis, is_tro, weight_defect


@dataclass
class Check:
    name: str
    defect: float | None
    tolerance: float | None
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

    def measured(self, tol, defects: dict):
        """One row per named defect, passing when it is at most tol."""
        for name, defect in defects.items():
            self.add(name, defect <= tol, defect, tol)

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
            "checks": [asdict(c) for c in self.checks],
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
            tol = f"{c.tolerance:.1e}" if c.tolerance is not None else "-"
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
    """The functional of a source, rejected unless its trace norm ‖ω‖ is
    finite and ‖ω‖² is too, which bounds ‖ω⋆ω‖, so that ω⋆ω can be formed
    in double precision."""
    omega = _functional_source(G, spec)
    with np.errstate(over="ignore", invalid="ignore"):   # an overflowing norm is inf, rejected below
        norm = omega.norm
    if not math.isfinite(norm * norm):
        raise ValueError(f"functional {spec!r} is too large for ω⋆ω in double precision (trace norm {norm:.3e})")
    return omega


def _functional_source(G: FiniteQuantumGroup, spec: str) -> Functional:
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
        g = _element(G, parts[1], spec)
        if G.kind == "group":
            return _coset_indicator(G, frozenset({G.table.identity}), g)
        return Functional.from_covector(G.algebra, np.eye(G.table.order)[g])
    if parts[0] == "index" and len(parts) == 2:
        k = int(parts[1])
        items = _enumerate(G)
        if not 0 <= k < len(items):
            raise ValueError(f"index {k} out of range; enumeration has {len(items)} items")
        return items[k].functional
    if parts[0] == "subgroup-character" and len(parts) == 3:
        if G.kind != "function":
            raise ValueError("subgroup-character requires a function algebra")
        subgroup = G.table.closure([_element(G, x, spec) for x in parts[1].split(",") if x != ""])
        items = enumerate_function_algebra(G, [subgroup])
        k = int(parts[2])
        if not 0 <= k < len(items):
            raise ValueError(f"character index {k} out of range ({len(items)} characters)")
        return items[k].functional
    if parts[0] == "coset-indicator" and len(parts) == 3:
        if G.kind != "group":
            raise ValueError("coset-indicator requires a group algebra")
        subgroup = G.table.closure([_element(G, x, spec) for x in parts[1].split(",") if x != ""])
        return _coset_indicator(G, subgroup, _element(G, parts[2], spec))
    if parts[0] == "density":
        try:
            data = json.loads(spec[len("density:"):])
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"density literal must be a list of [re, im] pairs in {spec!r} ({exc})") from exc
        vec = catalogue.parse_pairs(data, f"density literal {spec!r}")
        if vec.shape != (G.dim,):
            raise ValueError(f"density literal must have {G.dim} entries")
        return Functional(G.algebra, G.algebra.from_vec(vec))
    raise ValueError(f"cannot parse functional source {spec!r}")


def _coset_indicator(G: FiniteQuantumGroup, subgroup: frozenset, g: int) -> Functional:
    """The indicator functional of the left coset of subgroup that holds g."""
    return next(item.functional for item in enumerate_group_algebra(G, [subgroup]) if g in item.coset)


def _enumerate(G: FiniteQuantumGroup):
    if G.kind == "function":
        return enumerate_function_algebra(G)
    if G.kind == "group":
        return enumerate_group_algebra(G)
    raise ValueError("enumeration is only available for classical function/group algebras")


def cmd_verify(G: FiniteQuantumGroup, args, report: Report):
    axioms = verify_axioms(G, args.tol)
    report.measured(args.tol, {f"axiom:{name}": defect for name, defect in sorted(axioms.defects.items())})
    report.info["commutativity_defect"] = f"{commutativity_defect(G):.3e}"
    report.info["cocommutativity_defect"] = f"{cocommutativity_defect(G):.3e}"
    report.info["block_dims"] = list(G.algebra.block_dims)


def cmd_enumerate(G: FiniteQuantumGroup, args, report: Report):
    if G.kind not in ("function", "group"):
        report.info["enumeration"] = (
            "Unsupported: exact enumeration exists only for classical function/group "
            "algebras; use the explore command with seed functionals instead"
        )
        return
    items = _enumerate(G)
    report.info["count"] = len(items)
    tol = max(args.tol, STATE_TOL)
    for k, item in enumerate(items):
        omega = item.functional
        report.add(f"item[{k}] contractive idempotent", is_contractive_idempotent(G, omega, tol),
                   contractive_defect(G, omega), tol,
                   note=f"{item.label} haar={is_haar_idempotent(G, omega.polar.abs_r, max(args.tol, CHECK_TOL))}")


def _analysis(G, omega, args, report: Report) -> Analysis | None:
    """The Analysis of ω at --tol floored at CHECK_TOL, once its contractive
    idempotent row, at --tol floored at STATE_TOL, passes; else None."""
    tol = max(args.tol, STATE_TOL)
    ok = is_contractive_idempotent(G, omega, tol)
    report.add("contractive idempotent", ok, contractive_defect(G, omega), tol,
               note="" if ok else f"not a contractive idempotent (norm {omega.norm:.6f})")
    return Analysis(G, omega, max(args.tol, CHECK_TOL)) if ok else None


def _expectation(a: Analysis, report: Report):
    """The five rows on the conditional expectation onto the linking algebra."""
    checks = a.checks
    report.measured(a.tol, {"expectation idempotent": checks.idempotent,
                            "expectation fixes linking algebra": checks.fixes_subalgebra,
                            "expectation bimodule": checks.bimodule})
    report.measured(CP_FLOOR, {"expectation completely positive": -checks.choi_min_eigenvalue})
    report.measured(a.tol, {"expectation preserves haar weight": weight_defect(a.expectation)})


def cmd_decompose(G: FiniteQuantumGroup, args, report: Report):
    _decomposition(_analysis(G, _parse_functional(G, args.functional), args, report), report)


def _decomposition(a: Analysis | None, report: Report):
    """The rows of decompose and explore on a contractive idempotent."""
    if a is None:
        return
    rep, tol = a.decomposition, a.tol
    report.measured(tol, {
        "absolute values idempotent states": max(rep.idempotency_r, rep.idempotency_l),
        "reconstruction v.|w|_r": rep.roundtrip_r,
        "reconstruction |w|_l.v": rep.roundtrip_l,
        "group-like defect (right)": rep.defect_r,
        "group-like defect (left)": rep.defect_l,
    })
    report.info["haar"] = rep.haar
    if rep.haar:
        report.measured(tol, {"haar: |w|_r = |w|_l": rep.haar_gap})
    if rep.subgroup is not None:
        report.info["subgroup_block_dims"] = list(rep.subgroup.target.algebra.block_dims)
        report.info["character"] = [[round(float(z.real), 12), round(float(z.imag), 12)] for z in rep.character.vec]
        report.measured(tol, {"haar: pi_*|w|_r = h_H": rep.subgroup_haar,
                              "haar: u = pi(v) group-like": rep.character_group_like,
                              "haar: w = h_H(pi(.)u)": rep.character_defect})
    tro = a.tro_report
    report.measured(tol, {f"mixed product {name}": value for name, value in tro.identity_residuals.items()})
    report.measured(tol, {f"tro {name}": value for name, value in tro.expectation_residuals.items()})
    report.add("image is TRO", is_tro(a.image, tol), a.image.tro_defect, tol)
    _expectation(a, report)


def cmd_explore(G: FiniteQuantumGroup, args, report: Report):
    seed_fn = _parse_functional(G, args.functional)
    ok = seed_fn.norm <= 1 + STATE_TOL
    report.add("seed contractive", ok, max(0.0, seed_fn.norm - 1.0), STATE_TOL,
               note="" if ok else "seed functional must have norm at most 1")
    if not ok:
        return
    tol = max(args.tol, CHECK_TOL)
    result = cesaro_limit(G, seed_fn, tol=tol, max_iter=args.max_iter)
    report.add("averaged convolution powers converged", result.converged, result.idempotency_defect, tol,
               note=f"{result.iterations} convolution ops" + (", mean-ergodic projection" if result.ergodic_finish else ""))
    if not result.converged:
        return
    if result.limit.norm <= CHECK_TOL:
        report.info["limit"] = "zero functional (no nonzero idempotent along this seed)"
        return
    _decomposition(_analysis(G, result.limit, args, report), report)


def cmd_tro(G: FiniteQuantumGroup, args, report: Report):
    a = _analysis(G, _parse_functional(G, args.functional), args, report)
    if a is None:
        return
    X, tol = a.image, a.tol
    report.info["image_dim"] = X.dim
    report.add("image is TRO", is_tro(X, tol), X.tro_defect, tol)
    report.measured(tol, {"image nondegenerate": X.rank_deficit, "image right invariant": X.right_invariance(G)})
    report.info["linking_dims"] = list(a.linking.corner_dims())
    report.measured(tol, {"linking corners right invariant": max(c.right_invariance(G) for c in X.product_spans)})
    _expectation(a, report)
    recovery = a.recovery
    if recovery.ok:
        report.measured(tol, {"recovered idempotent matches": (recovery.functional - a.omega).norm})
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
        p.add_argument("--group", required=True,
                       help="builtin:NAME or file:PATH; builtins: " + ", ".join(catalogue.BUILTINS))
        p.add_argument("--tol", type=float, default=STATE_TOL)
        p.add_argument("--json", action="store_true", dest="as_json")
        if name == "explore":
            p.add_argument("--max-iter", type=int, default=100_000, dest="max_iter")
        if name in ("decompose", "explore", "tro"):
            p.add_argument("--functional", required=True,
                           help="counit | haar | point:g | index:k | subgroup-character:H:k "
                                "| coset-indicator:H:g | density:[[re,im],...]")
    return parser


def _bind_functional(argv: list[str]) -> list[str]:
    """Write ``--functional SPEC`` as ``--functional=SPEC``, left to right (a
    trailing --functional is left for argparse to refuse): argparse takes a
    SPEC that starts with "-" for an option and exits instead of reporting it."""
    out, tokens = [], iter(argv)
    for token in tokens:
        spec = next(tokens, None) if token == "--functional" else None
        out.append(token if spec is None else f"--functional={spec}")
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_bind_functional(sys.argv[1:] if argv is None else argv))
    report = Report(command=args.command, inputs={"group": args.group})
    if getattr(args, "functional", None):
        report.inputs["functional"] = args.functional
    start = time.perf_counter()
    try:
        if not 0 <= args.tol < float("inf"):
            raise ValueError(f"--tol must be a finite number at least 0, got {args.tol}")
        group = _load_group(args.group)
        report.info["group"] = group.name or group.kind
        COMMANDS[args.command](group, args, report)
    except (ValueError, catalogue.QGSpecError) as exc:
        report.add("inputs valid", False, None, None, note=str(exc))
    report.elapsed = time.perf_counter() - start
    try:
        print(json.dumps(report.to_json(), indent=1) if args.as_json else report.render(), flush=True)
    except BrokenPipeError:   # the reader closed stdout: point it at devnull, so the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
