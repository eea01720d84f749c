#!/usr/bin/env python3
"""Closed-loop benchmark of quidem.

    python3 perfbench/run.py --workload {verify,classify,tro} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; quidem is imported from ./src.  One client
runs jobs back to back (a closed loop); whole rounds of the workload's job
mix are run, at least the workload's min_rounds of them and until S seconds
have passed.  Every job's output is checked against the oracles in
workloads.py; a job with any failed check or exception counts as failed.

--trace 0 prints the end-to-end metrics; --trace 1 runs untraced rounds,
then one traced round (set-up traced as well) and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import sys
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TAIL_BEYOND = 10        # samples the tail percentile leaves beyond it


def declared(section: str) -> list[tuple[str, str]]:
    """(name, unit) of the metrics BENCHMARK.json declares in `section`,
    in the order they are emitted."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[section]]


def blas_info() -> tuple[str, int | None]:
    """Name/version of the BLAS numpy uses, and its thread count read from
    the loaded OpenBLAS, when that is what is loaded."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        name = "unknown"
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return name, threads


def environment(seed: int) -> dict:
    import numpy as np

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas, threads = blas_info()
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "blas_threads": threads,
    }


def tail_percentile(min_jobs: int) -> float:
    """The highest percentile that leaves TAIL_BEYOND samples beyond it in a
    run of min_jobs jobs (linear interpolation between order statistics)."""
    return max(0.0, 100.0 * (min_jobs - 1 - TAIL_BEYOND) / (min_jobs - 1)) if min_jobs > 1 else 0.0


def end_to_end(latencies: list[float], elapsed: float, setups: list[float],
               peak_rss_mb: float, tail_pct: float) -> dict:
    """The end-to-end metrics from the latency of every job of the run."""
    import numpy as np

    metrics = {
        "jobs_per_s": len(latencies) / elapsed,
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": float(np.percentile(latencies, tail_pct)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: (metrics[name], unit) for name, unit in declared("end_to_end")}


def _run_round(workload, ctx, specs, tracer, records, job_meta):
    """Run one round's jobs back to back.  A job's latency is the time its
    quidem calls take; the oracle check that follows is not timed."""
    for spec in specs:
        job = len(records)
        start = perf_counter()
        latency = None
        try:
            if tracer is None:
                check = workload.run(ctx, spec, None, -1)
                latency = perf_counter() - start
                failures = check()
            else:
                tracer.job = job
                job_meta[job] = {**workload.meta(ctx, spec),
                                 "proc": job if not workload.in_process else 0}
                with tracer.span("bench.job") as idx:
                    check = workload.run(ctx, spec, tracer, idx)
                    latency = perf_counter() - start
                    with tracer.span("bench.oracle"):
                        failures = check()
        except Exception as exc:  # a job that raises is a failed job
            if latency is None:
                latency = perf_counter() - start
            failures = [f"{type(exc).__name__}: {exc}"]
            traceback.print_exc(file=sys.stderr)
        records.append((latency, failures, spec))


def measure(name: str, seed: int, seconds: float, trace: bool, groups=None) -> dict:
    """Run one workload; returns attempted, failed, metrics and details.
    `groups` restricts the job mix (the smoke test uses it)."""
    import numpy as np

    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    rng = np.random.default_rng(seed)
    records: list = []
    details: dict = {}
    if not trace:
        setups = []
        for _ in range(workload.setup_repeats):
            tracing.clear_caches()
            start = perf_counter()
            ctx = workload.setup(groups)
            setups.append(perf_counter() - start)
        start = perf_counter()
        rounds = 0
        while rounds < workload.min_rounds or perf_counter() - start < seconds:
            _run_round(workload, ctx, workload.round(ctx, rng), None, records, {})
            rounds += 1
        elapsed = perf_counter() - start
        tail_pct = tail_percentile(workload.min_rounds * workload.round_size(ctx))
        latencies = [r[0] for r in records]
        metrics = end_to_end(latencies, elapsed, setups, workload.peak_rss_mb(), tail_pct)
        by_kind: dict = {}
        for latency, _, spec in records:
            by_kind.setdefault(str(workload.kind(spec)), []).append(latency)
        details.update(
            rounds=rounds, jobs=len(records), elapsed_s=elapsed, tail_percentile=tail_pct,
            fail_ratio=sum(bool(r[1]) for r in records) / len(records),
            kind_median_latency_s={k: statistics.median(v) for k, v in by_kind.items()},
            setup_runs_s=setups,
        )
    else:
        tracer = tracing.Tracer()
        tracing.clear_caches()
        with tracing.installed(tracer):
            with tracer.span("bench.setup"):
                ctx = workload.setup(groups)
        # untraced rounds until one more round would reach the run length,
        # then one traced round, so per-layer totals cover exactly one round
        start = perf_counter()
        untraced = 0
        while True:
            _run_round(workload, ctx, workload.round(ctx, rng), None, records, {})
            untraced += 1
            spent = perf_counter() - start
            if spent + spent / untraced >= seconds:
                break
        untraced_jobs = len(records)
        untraced_s = sum(r[0] for r in records)
        job_meta: dict = {}
        with tracing.installed(tracer):
            _run_round(workload, ctx, workload.round(ctx, rng), tracer, records, job_meta)
        values = tracing.layer_metrics(tracer, job_meta, untraced_s, untraced_jobs)
        metrics = {name: (float(values.get(name, 0.0)), unit)
                   for name, unit in declared("per_layer")}
        details.update(untraced_rounds=untraced, untraced_jobs=untraced_jobs,
                       traced_jobs=len(records) - untraced_jobs)
    failed = [r for r in records if r[1]]
    for _, failures, spec in failed[:10]:
        print(f"FAILED {spec}: {'; '.join(failures)[:500]}", file=sys.stderr)
    return {"attempted": len(records), "failed": len(failed), "metrics": metrics,
            "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify", "classify", "tro"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "quidem", "__init__.py")):
        print(f"perfbench: no quidem sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    env = environment(args.seed)
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        print(f"perfbench: BLAS would start {env['blas_threads']} threads on "
              f"{env['nproc']} processors; refusing", file=sys.stderr)
        return 2
    print("env " + json.dumps(env))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("details " + json.dumps(result["details"]))
    for key, (value, unit) in result["metrics"].items():
        print(f"{key:48s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
