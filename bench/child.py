"""One workload run in a fresh interpreter, driven by bench/run.py.

The child imports mdkit, generates the command blocks from the seed, and
prints "ready" so the parent can time set-up.  Unless --setup-only is given
it then calls ``mdkit.cli.main(argv)`` in a closed loop with one client,
checks every report against its known answer, and prints one JSON line of
results.  With --trace 1 it runs the trace blocks once untraced and once
under the layer tracer instead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import sys
from fractions import Fraction
from time import perf_counter

import workloads

# Blocks per second of --seconds: a run executes a fixed number of blocks,
# about --seconds of work on the same VM, so that the count of commands,
# and of the refusals among them, is the same in every run.
BLOCKS_PER_S = {"tower-sections": 1.4, "periodic-points": 0.47, "combinatorics": 0.5}
# A run stops early, after a whole block, once this many times --seconds
# have been spent inside cli.main, so that a much slower program still
# finishes within the run's deadline.
SLACK = 4
# Time of reference_task() at the reference CPU speed; about the median on
# the 2-CPU x86-64 VM the benchmark was built on.
REFERENCE_S = 0.0012
# Reference times on each side of a command that set its scale.
WINDOW = 6
# Blocks of the traced run (about 9 s untraced): a fixed command list, so
# its counts repeat exactly.
TRACE_BLOCKS = {"tower-sections": 20, "periodic-points": 4, "combinatorics": 4}


class Outcome:
    """Latency and refusal/correctness tallies of executed commands."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.refused = 0
        self.wrong: list[str] = []
        self.report_bytes = 0


def execute(cli, command, outcome: Outcome, index: int = -1, tracer=None) -> str:
    """Run one command, time it, check its answer; return its stdout."""
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.request = index
    refused = False
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(command.argv)
    except SystemExit as exc:  # argparse usage errors exit 2
        code, refused = exc.code, True
    except Exception:  # noqa: BLE001 - a valid input must never raise
        code, refused = None, True
    elapsed = perf_counter() - start
    outcome.latencies.append(elapsed)
    stdout = out.getvalue()
    outcome.report_bytes += len(stdout.encode())
    if refused or code == 2 or "Traceback" in err.getvalue():
        outcome.refused += 1
    else:
        try:
            reason = command.check(code, stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"unreadable report: {exc!r}"
        if reason is not None:
            outcome.wrong.append(f"{' '.join(command.argv)}: {reason}")
    return stdout


def reference_task() -> float:
    """Time a fixed pure-Python exact-rational loop, the kind of work mdkit does."""
    start = perf_counter()
    acc = Fraction(0)
    for i in range(150):
        acc = (acc + Fraction(i % 97, 64)) % 2
        acc = min(acc, 2 - acc)
    return perf_counter() - start


def closed_loop(cli, blocks, seconds: float) -> dict:
    """Run every block once, in order, unless SLACK * ``seconds`` run out.

    The host's CPU speed drifts by up to 1.5x over seconds to minutes, so
    the untimed reference task runs before each command and after the last
    one, and each latency is scaled by REFERENCE_S over the median of the
    reference times around it (WINDOW on each side): latencies at the speed
    where that task takes 1.2 ms.
    """
    outcome = Outcome()
    first_block: list[str] = []
    reference: list[float] = []
    for index, block in enumerate(blocks):
        if math.fsum(outcome.latencies) > SLACK * seconds:
            break
        for command in block:
            reference.append(reference_task())
            stdout = execute(cli, command, outcome)
            if index == 0:
                first_block.append(stdout)
    reference.append(reference_task())
    scaled = [
        t * REFERENCE_S / statistics.median(reference[max(0, i - WINDOW + 1):i + WINDOW + 1])
        for i, t in enumerate(outcome.latencies)
    ]
    # Determinism: the first block again must print byte-identical reports.
    repeat = Outcome()
    for command, before in zip(blocks[0], first_block):
        if execute(cli, command, repeat) != before:
            repeat.wrong.append(f"{' '.join(command.argv)}: stdout differs on repeat")
    lat = sorted(scaled)
    n = len(lat)
    return {
        "attempted": n,
        "refused": outcome.refused,
        "wrong": outcome.wrong + repeat.wrong,
        "raw_commands_per_s": n / math.fsum(outcome.latencies),
        "metrics": {
            "commands_per_s": n / math.fsum(lat),
            "verdict_p50_ms": statistics.median(lat) * 1000,
            # nearest rank; with n >= 200 at least ten samples lie above it
            "verdict_p95_ms": lat[math.ceil(0.95 * n) - 1] * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "answered_share": (n - outcome.refused) / n,
        },
    }


def traced(cli, blocks, trace_path: str) -> dict:
    """One untraced and one traced pass over the same fixed command list."""
    from tracer import Tracer

    commands = [c for block in blocks for c in block]
    plain = Outcome()
    plain_out = [execute(cli, c, plain) for c in commands]
    tracer = Tracer()
    tracer.install()
    outcome = Outcome()
    try:
        traced_out = [execute(cli, c, outcome, i, tracer) for i, c in enumerate(commands)]
    finally:
        tracer.uninstall()
    wrong = plain.wrong + outcome.wrong
    for command, a, b in zip(commands, plain_out, traced_out):
        if a != b:
            wrong.append(f"{' '.join(command.argv)}: stdout differs under tracing")
    tracer.write_spans(trace_path)
    metrics = tracer.metrics()
    metrics["cli.report_bytes"] = outcome.report_bytes
    # share of throughput lost to tracing, over the same command list
    metrics["trace_overhead_share"] = 1 - math.fsum(plain.latencies) / math.fsum(outcome.latencies)
    return {
        "attempted": 2 * len(commands),
        "refused": plain.refused + outcome.refused,
        "wrong": wrong,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from mdkit import cli

    if args.trace:
        count = TRACE_BLOCKS[args.workload]
    else:
        count = max(1, round(args.seconds * BLOCKS_PER_S[args.workload]))
    blocks = workloads.blocks(args.workload, args.seed, count)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = traced(cli, blocks, args.trace_file)
    else:
        result = closed_loop(cli, blocks, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
