"""One benchmark process: set up a workload, then measure it.

    PYTHONPATH=src python3 perfbench/worker.py --workload pingpong \\
        --seed 1 --seconds 30 --trace 0 --t0 <time.time() at spawn> \\
        [--setup-only]

``run.py`` starts this in a fresh interpreter so that set-up time and peak
RSS belong to one workload alone.  Set-up is import plus the workload's
warm-up; ``--setup-only`` stops there.  With ``--trace 0`` it times passes
with nothing installed until ``--seconds`` have elapsed.  With ``--trace 1``
it times two plain passes, then profiles passes until ``--seconds`` have
elapsed (at least two, so their deterministic counts can be compared).
Human-readable lines go to stdout; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from typing import Dict, List, Optional

import layers
from workloads import APP_SPECS, WORKLOADS, Units, Workload, load_reference

from repro.config import ALL_CONFIGS
from repro.units import MiB

MIN_TIMED_PASSES = 3
MIN_PROFILED_PASSES = 2
#: the paper's Figure 4 at 4 MiB: McKernel ~90% of Linux,
#: McKernel+HFI ~+15% over Linux
PAPER_FIG4_RATIOS = {"mckernel": 0.90, "mckernel_hfi": 1.15}
#: traced-run counts expected to repeat exactly between profiled passes;
#: one that drifts is named in the log as unfit for count-based claims
COUNT_SUFFIXES = (".calls", "_calls", "_freed", ".inits", ".builds",
                  ".lookups")
COUNT_PREFIXES = ("model.", "analysis.check.", "sim.events")


class Tally:
    """Attempted/failed units over the passes of one run.  Besides the
    reference rule, every pass must reproduce the run's first pass."""

    def __init__(self, workload: Workload, seed: int, reference: Units):
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.first: Optional[Units] = None
        self.attempted = 0
        self.failed = 0
        self.failed_ids: List[str] = []
        self.passes = 0
        #: passes not equal to the reference in every recorded value
        self.off_reference = 0

    def add(self, units: Optional[Units]) -> None:
        """Account one pass; ``None`` means the pass raised."""
        wl = self.workload
        self.passes += 1
        if units is None:
            n = wl.units_in(self.reference)
            self.attempted += n
            self.failed += n
            self.failed_ids.append("<pass raised>")
            return
        self.off_reference += units != self.reference
        bad = set(wl.failed_ids(self.seed, units, self.reference))
        if self.first is None:
            self.first = units
        else:
            bad |= {k for k in set(units) | set(self.first)
                    if k not in units or k not in self.first
                    or wl.checked(units[k]) != wl.checked(self.first[k])}
        self.attempted += wl.units_in(units)
        self.failed += sum(wl.weight(units.get(k, self.reference.get(k)))
                           for k in bad
                           if k in units or k in self.reference)
        self.failed_ids.extend(sorted(bad))


def run_pass(workload: Workload, seed: int) -> Optional[Units]:
    """One pass; a raised exception is reported and counted, not fatal."""
    try:
        return workload.run(seed)
    except Exception:  # a failed pass is a measured outcome
        traceback.print_exc()
        return None


def timed_pass(workload: Workload, seed: int):
    """``(units, host seconds)`` of one pass started from a collected
    heap."""
    gc.collect()
    t = time.perf_counter()
    units = run_pass(workload, seed)
    return units, time.perf_counter() - t


def describe(name: str, units: Optional[Units]) -> List[str]:
    """The model's numbers beside the paper's, for the run's log."""
    if units is None:
        return []
    if name == "pingpong":
        size = 4 * MiB
        linux = units[f"linux/{size}"]
        lines = ["fig4 at 4 MiB (simulated):"]
        for config, paper in PAPER_FIG4_RATIOS.items():
            ratio = units[f"{config}/{size}"] / linux
            lines.append(f"  {config}/linux = {ratio:.3f}  paper ~{paper:.2f}"
                         f"  error {100 * (ratio - paper) / paper:+.1f}%")
        return lines
    if name == "apps":
        lines = ["simulated runtime, 2 nodes, 1 iteration (reduced ranks: "
                 "not validated against the paper):"]
        for spec in APP_SPECS:
            cells = "  ".join(
                f"{c.value}={units[f'{spec.name}/{c.value}']['sim_s'] * 1e3:.1f}ms"
                for c in ALL_CONFIGS)
            lines.append(f"  {spec.name} @{spec.ranks_per_node} ranks/node: "
                         f"{cells}")
        return lines
    return ["PicoCheck pingpong @smoke bound: " + "  ".join(
        f"{cfg}: runs={o['runs']} explored={o['explored']} "
        f"deduped={o['deduped']} reduced={o['reduced']}"
        f"{' VIOLATION' if o['violation'] else ''}"
        for cfg, o in units.items())]


def measure(workload: Workload, seed: int, seconds: float,
            tally: Tally) -> Dict[str, object]:
    """End-to-end run: passes with nothing installed."""
    walls: List[float] = []
    deadline = time.perf_counter() + seconds
    last = None
    while len(walls) < MIN_TIMED_PASSES or time.perf_counter() < deadline:
        units, wall = timed_pass(workload, seed)
        tally.add(units)
        walls.append(wall)
        last = units if units is not None else last
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wall_s = statistics.median(walls)
    log = describe(workload.name, last) + [
        f"{len(walls)} timed passes: median {wall_s:.4f} s, "
        f"min {min(walls):.4f} s, max {max(walls):.4f} s"]
    return {"log": log,
            "metrics": {"wall_s": wall_s, "peak_rss_mb": rss_kib / 1024}}


def app_runtimes(units: Optional[Units]) -> Dict[str, float]:
    """``model.sim_s.<app>.<config>``: simulated seconds per app run."""
    return {f"model.sim_s.{spec.name}.{c.value}":
            (units or {}).get(f"{spec.name}/{c.value}", {}).get("sim_s", 0.0)
            for spec in APP_SPECS for c in ALL_CONFIGS}


def check_counts(name: str, exploration: Optional[Units]) -> Dict[str, float]:
    """``analysis.check.*`` for the explore pass (0 elsewhere)."""
    if name != "explore" or exploration is None:
        return {"analysis.check.runs": 0, "analysis.check.reduced": 0,
                "analysis.check.distinct_ratio": 0.0}
    runs = sum(o["runs"] for o in exploration.values())
    distinct = sum(o["explored"] - o["deduped"]
                   for o in exploration.values())
    return {"analysis.check.runs": runs,
            "analysis.check.reduced": sum(o["reduced"]
                                          for o in exploration.values()),
            "analysis.check.distinct_ratio": distinct / runs}


def trace(workload: Workload, seed: int, seconds: float,
          tally: Tally) -> Dict[str, object]:
    """Traced run: plain passes for the overhead baseline, then profiled
    passes, then (``pingpong``) one PicoTrace pass for the critical path."""
    plain = []
    for _ in range(2):
        units, wall = timed_pass(workload, seed)
        tally.add(units)
        plain.append(wall)
    base = statistics.median(plain)

    passes: List[Dict[str, float]] = []
    walls: List[float] = []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PROFILED_PASSES \
            or time.perf_counter() < deadline:
        gc.collect()
        t = time.perf_counter()
        try:
            units, metrics = layers.profiled(lambda: workload.run(seed))
        except Exception:
            traceback.print_exc()
            units, metrics = None, None
        walls.append(time.perf_counter() - t)
        tally.add(units)
        if metrics is None:
            break
        metrics.update(app_runtimes(units))
        metrics.update(check_counts(workload.name, units))
        passes.append(metrics)
    if not passes:
        return {"log": ["traced run: every profiled pass raised"],
                "metrics": {}}

    exact = [m for m in passes[0]
             if m.endswith(COUNT_SUFFIXES) or m.startswith(COUNT_PREFIXES)]
    drift = sorted(m for m in exact
                   if any(p[m] != passes[0][m] for p in passes[1:]))
    metrics = {m: (passes[0][m] if m in exact
                   else statistics.median(p[m] for p in passes))
               for m in passes[0]}
    metrics["sim.us_per_event"] = (1e6 * base / metrics["sim.events"]
                                   if metrics["sim.events"] else 0.0)
    metrics["trace.overhead_ratio"] = statistics.median(walls) / base

    metrics.update(dict.fromkeys(
        (f"model.cp.{c.value}.{cat}_us"
         for c in ALL_CONFIGS for cat in layers.CP_CATEGORIES), 0.0))
    if workload.name == "pingpong":
        try:
            units, cp = layers.critical_path_metrics(
                lambda: workload.run(seed))
            metrics.update(cp)
        except Exception:
            traceback.print_exc()
            units = None
        tally.add(units)

    log = [f"traced run: {len(passes)} profiled passes, overhead "
           f"{metrics['trace.overhead_ratio']:.2f}x over "
           f"{base:.3f} s untraced"]
    if drift:
        log.append("counts that differ between profiled passes (not valid "
                   "for count-based claims): " + ", ".join(drift))
    return {"log": log, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; see the module docstring."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.time() when the parent spawned us")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    workload.warm_up()
    setup_s = time.time() - args.t0
    result: Dict[str, object] = {"setup_s": setup_s}
    if not args.setup_only:
        reference = load_reference()[workload.name]
        tally = Tally(workload, args.seed, reference)
        run = trace if args.trace else measure
        result.update(run(workload, args.seed, args.seconds, tally))
        result.update(attempted=tally.attempted, failed=tally.failed,
                      failed_ids=tally.failed_ids[:20])
        if workload.name == "explore" and tally.off_reference:
            result["log"].append(
                f"{tally.off_reference} of {tally.passes} passes explored "
                f"other counts than reference.json (known defect 3)")
        for line in result.pop("log"):
            print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
