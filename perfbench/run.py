"""The repo benchmark: time one workload of the PicoDriver simulator.

    python3 perfbench/run.py --workload <pingpong|apps|explore> \\
        --seed N --seconds S --trace <0|1>

Run from the repository root; the simulator is imported from ``src/``.
Each measurement runs in a fresh ``worker.py`` interpreter so set-up time
and peak RSS belong to the workload alone.

``--trace 0`` reports the end-to-end metrics (host time; tracing off):
``wall_s`` (median host seconds of one pass), ``setup_s`` (median over
several fresh processes of the time from spawn until the first pass could
start: interpreter start, imports, warm-up) and ``peak_rss_mb``.
``--trace 1`` reports the per-layer metrics instead (see README.md).
The last line of stdout is one JSON object; units come from
``BENCHMARK.json``.  Exits 2 without a result when ``src/repro`` or
``BENCHMARK.json`` is missing, 1 when a worker crashes or runs too long.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("pingpong", "apps", "explore")
#: fresh processes that only set up; with the measuring worker's own
#: set-up they give the ``setup_s`` median
SETUP_PROBES = 4
#: the whole run must end well inside 180 s
BUDGET_S = 170.0


class BenchError(Exception):
    """A run that cannot produce a result."""


def spawn(args: List[str], env: Dict[str, str], deadline: float
          ) -> Dict[str, object]:
    """Run one worker; returns its JSON result, echoing its log lines."""
    cmd = [sys.executable, WORKER, *args, "--t0", repr(time.time())]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded the {BUDGET_S:.0f} s budget")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; see the module docstring."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")) \
            or not os.path.isfile(spec_path):
        print("perfbench: run from the repository root (needs src/repro "
              "and BENCHMARK.json)", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ, PYTHONPATH=src,
               # fixed string hashing, so call counts repeat across runs
               PYTHONHASHSEED="0")
    deadline = time.time() + BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [] if args.trace else [
            spawn(common + ["--seconds", "0", "--setup-only"], env,
                  deadline)["setup_s"]
            for _ in range(SETUP_PROBES)]
        result = spawn(common + ["--seconds", str(args.seconds),
                                 "--trace", str(args.trace)], env, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    measured = dict(result["metrics"])
    if not args.trace:
        setups.append(result["setup_s"])
        measured["setup_s"] = statistics.median(setups)
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        print(f"perfbench: metrics not measured: {', '.join(missing)}",
              file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0
    if result["failed_ids"]:
        print("failed units: " + ", ".join(result["failed_ids"]))
    print(f"workload {args.workload} seed {args.seed}: "
          f"error_rate {failed / attempted:.4g} ({failed}/{attempted} "
          f"units)")
    for m in declared:
        print(f"  {m['name']:<40} {measured[m['name']]:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]],
                                "unit": m["unit"]} for m in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
