"""Span tracing of quidem from outside the library.

`installed` replaces every public module-level function of the traced quidem
modules, in every quidem namespace that binds it, with a wrapper that records
one span per call: ``[name, start, end, parent, job, info]``.  ``parent`` is
the index of the enclosing span (-1 for none), so calls nest whether they
cross modules or stay inside one.  The ``AlgebraElement.operator_norm``
property is wrapped to count calls and the blocks each call takes a 2-norm
of; it records no span.  Spans stay in memory until the run ends.

`layer_metrics` turns the spans of one traced round into per-layer figures,
among them every per-layer metric BENCHMARK.json names.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import sys
from time import perf_counter

MODULES = ("cli", "catalogue", "wedderburn", "qgroup", "algebra", "convolution",
           "idempotents", "groups", "tro")

SETUP = "setup"
CHILD_MARKER = "--perfbench-trace--"


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.spans: list = []
        self.stack = [-1]
        self.job = SETUP
        self.norms: dict = {}          # job -> [operator_norm calls, blocks]

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1]
        self.stack.append(idx)
        start = perf_counter()
        try:
            yield idx
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[idx] = [name, start, end, parent, self.job, None]

    def add_child_trace(self, parent: int, data: dict, spawn: float, job):
        """Merge the spans a child process handed back, under span `parent`.
        The child's interpreter and import start-up becomes a ``cli.startup``
        span, the tracer install a ``bench.install`` span."""
        spans = self.spans
        spans.append(["cli.startup", spawn, data["import_end"], parent, job, None])
        spans.append(["bench.install", data["import_end"], data["install_end"], parent, job, None])
        base = len(spans)
        for name, start, end, sub_parent, _, info in data["spans"]:
            spans.append([name, start, end, parent if sub_parent < 0 else base + sub_parent, job, info])
        calls, blocks = data["norms"]
        counts = self.norms.setdefault(job, [0, 0])
        counts[0] += calls
        counts[1] += blocks

    def dump(self) -> dict:
        """The child-process side of add_child_trace."""
        calls = sum(c[0] for c in self.norms.values())
        blocks = sum(c[1] for c in self.norms.values())
        return {"spans": self.spans, "norms": [calls, blocks]}


def structure_hash(G) -> str:
    """Content hash of a quantum group's structure data."""
    h = hashlib.sha1(repr(tuple(G.algebra.block_dims)).encode())
    for arr in (G.comult, G.antipode, G.counit.covector, G.haar.covector):
        h.update(arr.tobytes())
    return h.hexdigest()


def _before_verify_axioms(args, kwargs):
    G = args[0] if args else kwargs["G"]
    return {"pairs": G.dim * G.dim, "hash": structure_hash(G)}


def _after_cesaro_limit(result):
    # cesaro_limit spends 1 + 3k products to reach checkpoint 2**k and three
    # more on the mean-ergodic finish
    doublings = result.checkpoint.bit_length() - 1
    ergodic = result.converged and result.iterations == 3 * doublings + 4
    return {"ops": result.iterations, "ergodic": ergodic}


_BEFORE = {"qgroup.verify_axioms": _before_verify_axioms}
_AFTER = {"convolution.cesaro_limit": _after_cesaro_limit}


def public_functions() -> dict:
    """id(function) -> (span name, function) for every public module-level
    function (lru-cached ones included) defined in a traced module."""
    out = {}
    for short in MODULES:
        mod = importlib.import_module(f"quidem.{short}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or inspect.isclass(obj):
                continue
            if not (inspect.isfunction(obj) or hasattr(obj, "cache_clear")):
                continue
            if getattr(obj, "__module__", None) == mod.__name__:
                out[id(obj)] = (f"{short}.{attr}", obj)
    return out


def clear_caches():
    """Empty the lru caches of quidem's module-level functions, so that each
    set-up starts as cold as a fresh process."""
    for _, fn in public_functions().values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


def _wrap(tracer: Tracer, name: str, fn):
    spans, stack = tracer.spans, tracer.stack
    before, after = _BEFORE.get(name), _AFTER.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        info = before(args, kwargs) if before else None
        idx = len(spans)
        spans.append(None)
        parent = stack[-1]
        stack.append(idx)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            spans[idx] = [name, start, end, parent, tracer.job, info]
        if after:
            spans[idx][5] = after(result)
        return result

    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace quidem while the block runs; restore the originals after."""
    from quidem.algebra import AlgebraElement

    wrappers = {key: _wrap(tracer, name, fn) for key, (name, fn) in public_functions().items()}
    patched = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "quidem" or modname.startswith("quidem.")):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
    norm_prop = AlgebraElement.__dict__["operator_norm"]

    def counted_norm(self):
        counts = tracer.norms.setdefault(tracer.job, [0, 0])
        counts[0] += 1
        counts[1] += len(self.blocks)
        return norm_prop.fget(self)

    AlgebraElement.operator_norm = property(counted_norm)
    try:
        yield tracer
    finally:
        AlgebraElement.operator_norm = norm_prop
        for mod, attr, obj in patched:
            setattr(mod, attr, obj)


def _self_times(spans) -> list:
    covered = [0.0] * len(spans)
    for name, start, end, parent, job, info in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, covered)]


def layer_metrics(tracer: Tracer, job_meta: dict, untraced_job_s: float, untraced_jobs: int) -> dict:
    """Per-layer metrics of the traced round (spans whose job is an int) and
    of the traced set-up.  job_meta maps job -> {"sum_n": Σ n_k of its
    group, "proc": process that ran its quidem calls}."""
    spans = tracer.spans
    self_s = _self_times(spans)
    jobs, setup = {}, {}

    def add(acc, key, value):
        acc[key] = acc.get(key, 0) + value

    hashes = {}
    job_s = layers = bench_own = oracle_s = unattributed = 0.0
    for span, own in zip(spans, self_s):
        name, start, end, parent, job, info = span
        if job == SETUP:
            acc = setup
        else:
            acc = jobs
            if name == "bench.job":
                job_s += end - start
                unattributed += own
            elif name.startswith("bench."):
                bench_own += own
                if name == "bench.oracle":
                    oracle_s += end - start
            else:
                layers += own
        module = name.split(".", 1)[0]
        add(acc, f"{name}.calls", 1)
        add(acc, f"{name}.self_s", own)
        add(acc, f"{module}.self_s", own)
        if module == "catalogue" and not (parent >= 0 and spans[parent][0].startswith("catalogue.")):
            add(acc, "catalogue.build.calls", 1)
        if name == "qgroup.verify_axioms" and info and acc is jobs:
            add(acc, "qgroup.verify_axioms.basis_pairs", info["pairs"])
            hashes.setdefault(job_meta[job]["proc"], set()).add(info["hash"])
        if name == "convolution.cesaro_limit" and info and acc is jobs:
            add(acc, "convolution.cesaro_limit.ops", info["ops"])
            add(acc, "convolution.cesaro_limit.ergodic", int(info["ergodic"]))
        if name == "tro.expectation_checks" and acc is jobs:
            add(acc, "tro.expectation_checks.choi_bytes", 16 * (2 * job_meta[job]["sum_n"]) ** 4)
    for acc in (jobs, setup):
        acc["catalogue.build.self_s"] = acc.get("catalogue.self_s", 0.0)
        acc["idempotents.enumerate.self_s"] = (
            acc.get("idempotents.enumerate_function_algebra.self_s", 0.0)
            + acc.get("idempotents.enumerate_group_algebra.self_s", 0.0)
        )
    calls = jobs.get("qgroup.verify_axioms.calls", 0)
    jobs["qgroup.verify_axioms.distinct_ratio"] = (
        sum(len(h) for h in hashes.values()) / calls if calls else 0.0
    )
    cesaro = jobs.get("convolution.cesaro_limit.calls", 0)
    jobs["convolution.cesaro_limit.ergodic_ratio"] = (
        jobs.get("convolution.cesaro_limit.ergodic", 0) / cesaro if cesaro else 0.0
    )
    jobs["cli.startup_s"] = jobs.get("cli.startup.self_s", 0.0)
    norms = [c for job, c in tracer.norms.items() if job != SETUP]
    jobs["algebra.operator_norm.calls"] = sum(c[0] for c in norms)
    jobs["algebra.norm_block_evals"] = sum(c[1] for c in norms)
    traced_jobs = len(job_meta)
    jobs["setup.traced_s"] = sum(end - start for name, start, end, parent, job, _ in spans
                                 if job == SETUP and parent < 0)
    for key in ("catalogue.build", "wedderburn.decompose", "qgroup.verify_axioms",
                "idempotents.enumerate", "groups", "convolution.cesaro_limit"):
        jobs[f"setup.{key}.self_s"] = setup.get(f"{key}.self_s", 0.0)
    jobs["trace.job_s"] = job_s
    jobs["trace.layers_self_s"] = layers
    jobs["trace.bench_s"] = bench_own
    jobs["trace.unattributed_s"] = unattributed
    jobs["trace.overhead_ratio"] = (
        ((job_s - oracle_s) / traced_jobs) / (untraced_job_s / untraced_jobs) - 1.0
        if traced_jobs and untraced_jobs and untraced_job_s > 0 else 0.0
    )
    jobs["trace.spans"] = len(spans)
    return jobs
