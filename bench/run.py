"""mdkit benchmark: CLI workloads timed to the verdict, plus a layer trace.

Run from the root of a source checkout (mdkit need not be installed):

    python3 bench/run.py --workload tower-sections --seed 1 --seconds 30 --trace 0

Each run starts fresh child interpreters one at a time, with ``src`` on
their path.  Several children only import mdkit and generate the commands,
to time set-up; one more runs the workload (see bench/child.py).  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  A wrong verdict or a report that differs
on repeat makes the run exit 1; a checkout without mdkit's sources exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKLOADS = ("tower-sections", "periodic-points", "combinatorics")
SETUP_CHILDREN = 9
# A run must end within 180 s; the child is killed past this deadline.
DEADLINE_S = 170.0
TRACE_DIR = Path(".bench_out")

UNITS = {
    "setup_s": "s",
    "commands_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "answered_share": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


class ChildFailed(Exception):
    pass


def spawn(args, extra: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start one child; return its set-up time and its result line, if any."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    argv = [
        sys.executable, str(HERE / "child.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        *extra,
    ]
    start = perf_counter()
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True) as child:
        try:
            ready = child.stdout.readline()
            setup = perf_counter() - start
            rest, _ = child.communicate(timeout=max(1.0, deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            raise ChildFailed("child exceeded the run deadline") from None
    if ready.strip() != "ready" or child.returncode != 0:
        raise ChildFailed(f"child exited with code {child.returncode}")
    lines = rest.strip().splitlines()
    return setup, json.loads(lines[-1]) if lines else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not Path("src/mdkit/cli.py").is_file():
        print("bench: run from the root of an mdkit checkout (src/mdkit not found)", file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S
    try:
        if args.trace:
            TRACE_DIR.mkdir(exist_ok=True)
            trace_file = TRACE_DIR / f"spans-{args.workload}-{args.seed}.csv"
            _, result = spawn(args, ["--trace-file", str(trace_file)], deadline)
            metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in result["metrics"].items()}
        else:
            setups = [spawn(args, ["--setup-only"], deadline)[0] for _ in range(SETUP_CHILDREN - 1)]
            setup, result = spawn(args, [], deadline)
            setups.append(setup)
            values = dict(result["metrics"], setup_s=statistics.median(setups))
            metrics = {k: {"value": values[k], "unit": u} for k, u in UNITS.items()}
    except ChildFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    wrong = result["wrong"]
    for line in wrong[:20]:
        print(f"bench: wrong: {line}", file=sys.stderr)
    print(
        f"bench: {args.workload} seed {args.seed}: {result['attempted']} commands, "
        f"{result['refused']} refused (refused_share {result['refused'] / result['attempted']:.4f}), "
        f"{len(wrong)} wrong",
        file=sys.stderr,
    )
    if "raw_commands_per_s" in result:
        print(f"bench: unscaled commands_per_s {result['raw_commands_per_s']:.4f}", file=sys.stderr)
    print(json.dumps({
        "correct": not wrong,
        "attempted": result["attempted"],
        "failed": result["refused"] + len(wrong),
        "metrics": metrics,
    }))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
