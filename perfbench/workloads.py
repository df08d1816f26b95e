"""The benchmark's three workloads, driven through the public API of repro.

Each workload is a *pass*: one call that runs the workload once, serially,
on 2 simulated nodes, and returns its units of work keyed by a stable id.
A unit is what ``error_rate`` counts: one config x size point in
``pingpong``, one app x config run in ``apps``, one executed schedule in
``explore`` (there a unit key is a config and its weight is the number of
schedules that config ran).

Correctness is judged per unit against ``reference.json``, recorded at the
paper seed by ``record_reference.py``.  ``pingpong`` seeds the simulation
with ``--seed``; at any seed but the paper's it is held to fig4's shape
invariants instead of exact values.  ``apps`` and ``explore`` do not use
the seed and match the reference at every seed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from typing import Callable, Dict, List

from repro.analysis.check import SMOKE_BOUNDS, run_check
from repro.apps import QBOX, UMT2013, PingPong, run_micro
from repro.config import ALL_CONFIGS, OSConfig
from repro.experiments.common import build_machine
from repro.experiments.fig4 import DEFAULT_SIZES
from repro.params import default_params
from repro.units import KiB, MiB

#: the calibrated root seed; the references are recorded at it
PAPER_SEED = default_params().seed

#: UMT2013 at 16 ranks/node (half the paper's 32, to keep a pass short)
#: still puts 4x more ranks than the 4 Linux OS cores on each node, so
#: syscall-offload contention shows
UMT_RANKS_PER_NODE = 16
#: QBOX's per-rank mmap/munmap churn meets the O(n^2) Linux frame free;
#: 2 ranks/node keeps a pass near 2 s of host time (4 ranks/node: ~9 s;
#: 32 overflows the LWK partition, README.md known defect 2)
QBOX_RANKS_PER_NODE = 2
APP_SPECS = (replace(UMT2013, ranks_per_node=UMT_RANKS_PER_NODE),
             replace(QBOX, ranks_per_node=QBOX_RANKS_PER_NODE))

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

Units = Dict[str, object]


def pingpong_pass(seed: int) -> Units:
    """The fig4 sweep: IMB ping-pong over the 12 default sizes, 5 reps
    plus 1 warm-up, one 2-node machine per OS config.  Unit value: one-way
    bandwidth in bytes/s."""
    params = default_params(seed)
    units: Units = {}
    for config in ALL_CONFIGS:
        machine = build_machine(2, config, params=params)
        series = PingPong(machine).run(DEFAULT_SIZES)
        for size in DEFAULT_SIZES:
            units[f"{config.value}/{size}"] = series[size]
    return units


def apps_pass(seed: int) -> Units:
    """UMT2013 and QBOX skeletons, 1 iteration each, through the full MPI
    stack under every OS config.  ``seed`` is unused: the simulation runs
    at ``PAPER_SEED`` because the host cost of the Linux frame free swings
    4x with the frame-scatter draws (README.md), which would swamp any
    change under test.  Unit value: simulated runtime plus the aggregated
    ``MpiStats`` (per-call count and seconds)."""
    del seed
    units: Units = {}
    for spec in APP_SPECS:
        for config in ALL_CONFIGS:
            machine = build_machine(2, config, params=default_params())
            runtime, stats = run_micro(machine, spec, iterations=1)
            rows = stats.top(n=64)
            units[f"{spec.name}/{config.value}"] = {
                "sim_s": runtime,
                "mpi_time_s": stats.total_mpi_time,
                "calls": {r.call: stats.calls_to(r.call) for r in rows},
                "call_s": {r.call: r.time for r in rows},
            }
    return units


def explore_pass(seed: int) -> Units:
    """PicoCheck's ``pingpong`` scenario at the smoke bound: every schedule
    rebuilds a 2-node machine under KSan, lockdep and adversarial fault
    placement.  The explorer draws from no seed, so ``seed`` is unused.
    Unit value per config: verdict and exploration counts."""
    del seed
    result = run_check("pingpong", bounds=SMOKE_BOUNDS)
    return {o.config: {"runs": o.runs, "explored": o.explored,
                       "deduped": o.deduped, "reduced": o.reduced,
                       "exhausted": o.exhausted,
                       "violation": o.violation is not None}
            for o in result.outcomes}


# --- warm-up ------------------------------------------------------------------

def _warm_pingpong() -> None:
    for config in ALL_CONFIGS:
        PingPong(build_machine(2, config), repetitions=1).run((8, 64 * KiB))


def _warm_apps() -> None:
    tiny = replace(UMT2013, ranks_per_node=1)
    for config in ALL_CONFIGS:
        run_micro(build_machine(2, config), tiny, iterations=1)


def _warm_explore() -> None:
    run_check("pingpong", bounds=replace(SMOKE_BOUNDS, max_runs=1))


# --- correctness ----------------------------------------------------------------

def pingpong_invariants(units: Units) -> List[str]:
    """Unit ids breaking fig4's shape: PIO parity up to 64 KiB, McKernel at
    80-97% of Linux and McKernel+HFI at 105-130% at 4 MiB (the bounds the
    tier-1 fig4 tests assert)."""
    bad = [k for k, v in units.items()
           if not (isinstance(v, float) and math.isfinite(v) and v > 0)]
    if bad:
        return bad
    for size in DEFAULT_SIZES:
        linux = units[f"linux/{size}"]
        for config in (OSConfig.MCKERNEL, OSConfig.MCKERNEL_HFI):
            key = f"{config.value}/{size}"
            ratio = units[key] / linux
            if size <= 64 * KiB:
                ok = math.isclose(ratio, 1.0, rel_tol=1e-6)
            elif size == 4 * MiB:
                ok = (0.80 < ratio < 0.97 if config is OSConfig.MCKERNEL
                      else 1.05 < ratio < 1.30)
            else:
                ok = True
            if not ok:
                bad.append(key)
    return bad


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its pass, warm-up and correctness rule."""

    name: str
    run: Callable[[int], Units]
    warm_up: Callable[[], None]

    def weight(self, value: object) -> int:
        """How many units one output entry stands for."""
        return value["runs"] if self.name == "explore" else 1

    def units_in(self, units: Units) -> int:
        """Units a pass's output (or a reference) stands for."""
        return sum(self.weight(v) for v in units.values())

    def checked(self, value: object) -> object:
        """The part of one output entry that must repeat exactly.  For
        ``explore`` that is the verdict: its exploration counts vary
        between passes in one process (known defect 3 in README.md), so
        a count that differs from the reference is logged, not failed."""
        if self.name == "explore":
            return value["violation"], value["exhausted"]
        return value

    def failed_ids(self, seed: int, units: Units,
                   reference: Units) -> List[str]:
        """Output ids of one pass that fail the correctness rule."""
        if set(units) != set(reference):
            return sorted(set(units) ^ set(reference))
        if self.name == "pingpong" and seed != PAPER_SEED:
            return pingpong_invariants(units)
        return [k for k in units
                if self.checked(units[k]) != self.checked(reference[k])]


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("pingpong", pingpong_pass, _warm_pingpong),
        Workload("apps", apps_pass, _warm_apps),
        Workload("explore", explore_pass, _warm_explore),
    )}


def load_reference() -> Dict[str, Units]:
    """The recorded paper-seed outputs, per workload."""
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
