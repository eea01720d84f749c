"""Smoke test of the benchmark's own code: the smallest job mix of each
workload through the untraced and the traced path, with every metric
BENCHMARK.json names emitted with its unit.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402

SMALLEST = {"verify": "cfun:sn:3", "classify": "czn:4", "tro": "kp"}

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)
with open(os.path.join(HERE, "predictions.json")) as fh:
    PREDICTIONS = json.load(fh)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(SMALLEST))
def test_smallest_mix(workload, trace):
    result = run.measure(workload, seed=0, seconds=0, trace=trace, groups=[SMALLEST[workload]])
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    emitted = {name: unit for name, (value, unit) in result["metrics"].items()}
    named = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert emitted == named
    assert all(isinstance(value, float) for value, _ in result["metrics"].values())


def test_predictions_cite_declared_metrics():
    from workloads import WORKLOADS

    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert set(PREDICTIONS["predictions"]) == {m["name"] for m in BENCH["per_layer"]}
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    for rows in PREDICTIONS["predictions"].values():
        for row in rows:
            assert row["moves"] in e2e and row["workload"] in WORKLOADS


def test_tail_percentile_leaves_ten_beyond():
    import numpy as np

    for n in (11, 35, 45, 100):
        pct = run.tail_percentile(n)
        latencies = np.arange(n, dtype=float)
        assert (latencies > np.percentile(latencies, pct)).sum() == run.TAIL_BEYOND
