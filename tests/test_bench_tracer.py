"""The benchmark's layer tracer against the names and fields it reads.

``bench/tracer.py`` wraps mdkit's public functions by name and measures
their results (``len(report.records)``, ``report.verdict``, ``len(w.values)``
and more).  Each test installs it in process around one command of a
benchmark workload and reads its metrics, so a rename or deletion the tracer
depends on fails here, not only in a traced benchmark run.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from mdkit import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer_module = _load("tracer")
workloads = _load("workloads")

# per workload: the command picked (by its leading words) and the metrics it
# must move
COMMANDS = {
    "tower-sections": (
        ["tower", "verify"],
        ["torus.self_s", "tower.self_s", "shiftspace.sampler_self_s"],
    ),
    "periodic-points": (
        ["shift", "conjugacy"],
        ["shiftspace.membership_calls", "shiftspace.membership_records", "shiftspace.dilation_self_s"],
    ),
    "combinatorics": (
        ["embed"],
        ["shiftspace.membership_calls", "shiftspace.membership_records", "finite.embed_self_s"],
    ),
}


@pytest.mark.parametrize("workload", sorted(COMMANDS))
def test_tracer_measures_one_command(workload):
    prefix, moved = COMMANDS[workload]
    (block,) = workloads.blocks(workload, 1, 1)
    command = next(c for c in block if c.argv[: len(prefix)] == prefix)
    tracer = tracer_module.Tracer()
    tracer.install()
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(command.argv)
    finally:
        tracer.uninstall()
    assert command.check(code, out.getvalue()) is None
    metrics = tracer.metrics()
    names = {metric["name"] for metric in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]}
    # the driver adds the last two from the whole run
    assert set(metrics) == names - {"cli.report_bytes", "trace_overhead_share"}
    assert all(metrics[name] > 0 for name in moved), {name: metrics[name] for name in moved}
    assert metrics["shiftspace.membership_fail_share"] == 0
