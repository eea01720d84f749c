"""Traced ``quidem`` command line for the verify workload.

    PYTHONPATH=src python3 perfbench/child.py verify --group builtin:kp --json

Runs quidem.cli.main with tracing installed, prints what the CLI prints,
then a marker line and the spans as one JSON line for the parent to merge.
"""

import json
import sys
from time import perf_counter

import quidem.cli

import_end = perf_counter()
import tracing  # noqa: E402  (after quidem, so the import cost is quidem's)

tracer = tracing.Tracer()
tracer.job = 0
with tracing.installed(tracer):
    install_end = perf_counter()
    code = quidem.cli.main(sys.argv[1:])
print(tracing.CHILD_MARKER)
print(json.dumps({"import_end": import_end, "install_end": install_end, **tracer.dump()}))
sys.exit(code)
