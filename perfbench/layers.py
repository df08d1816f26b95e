"""Per-layer attribution for the traced run.

Host time comes from stdlib ``cProfile`` around one pass.  Self time and
call counts are summed by the repro package a function's file lives in
(``linux/hfi1`` is its own layer, ``hfi1``; stdlib, builtins and this
benchmark are ``other``).  A few named functions are reported on their own
as *entry* time: the cumulative time of calls arriving from outside the
named group, so a member that calls another member is not counted twice.

The modelled system is read from each machine once, after its run: the
public ``Tracer.report()`` counters and the number of DES events the
machine stepped.  Machines are observed through the PicoTune build probe
(``repro.config.enable_tune_probe``), so the same code sees the machines a
workload builds itself and the ones PicoCheck builds per schedule.
"""

from __future__ import annotations

import cProfile
import inspect
import os
import pstats
from typing import Callable, Dict, List, Optional, Tuple

import repro
from repro.config import ALL_CONFIGS, enable_tracing, enable_tune_probe
from repro.experiments.common import Machine
from repro.hw.memory import FrameAllocator, SharedHeap
from repro.hw.pagetable import PageTable
from repro.linux.hfi1.sdma import build_descs_from_pages
from repro.obs.critical_path import (breakdown_by_category, critical_path,
                                     message_completion)
from repro.obs.spans import SpanCollector
from repro.sim import Tracer

LAYERS = ("sim", "hw", "linux", "hfi1", "mckernel", "ihk", "psm", "mpi",
          "core", "analysis", "experiments", "apps", "other")
#: critical-path span categories of the fig4 message path
CP_CATEGORIES = ("psm", "sdma", "wire", "fastpath", "pio", "syscall",
                 "offload")

_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

FuncKey = Tuple[str, int, str]


def _key(fn: Callable) -> FuncKey:
    code = fn.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def _public_methods(cls: type) -> List[Callable]:
    return [fn for name, fn in vars(cls).items()
            if inspect.isfunction(fn) and not name.startswith("_")]


#: metric stem -> the functions whose entry time it reports
TIMED_GROUPS: Dict[str, List[Callable]] = {
    "hw.memory.free_s": [FrameAllocator.free],
    "hw.memory.alloc_s": [FrameAllocator.alloc,
                          FrameAllocator.alloc_scattered,
                          FrameAllocator.alloc_contiguous],
    "hw.heap.init_s": [SharedHeap.__init__],
    "hw.pagetable.s": _public_methods(PageTable),
    "hfi1.desc_build_s": [build_descs_from_pages],
    "experiments.build_s": [Machine.__init__],
}
#: metric -> the functions whose calls it counts
COUNTED_GROUPS: Dict[str, List[Callable]] = {
    "hw.memory.free_calls": [FrameAllocator.free],
    "hw.memory.extents_freed": [FrameAllocator._free_one],
    "hw.heap.inits": [SharedHeap.__init__],
    "hw.pagetable.lookups": [PageTable.lookup, PageTable.translate],
    "sim.trace_calls": [Tracer.count, Tracer.record],
    "experiments.builds": [Machine.__init__],
}


def layer_of(filename: str) -> str:
    """The layer a source file belongs to."""
    if not filename.startswith(_ROOT):
        return "other"
    parts = filename[len(_ROOT):].split(os.sep)
    if parts[:2] == ["linux", "hfi1"]:
        return "hfi1"
    return parts[0] if parts[0] in LAYERS else "other"


def profile_metrics(stats: Dict) -> Dict[str, float]:
    """Host-time layer metrics from one pass's ``pstats`` table."""
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    for (filename, _line, _name), (_cc, nc, tt, _ct, _callers) \
            in stats.items():
        layer = layer_of(filename)
        out[f"{layer}.self_s"] += tt
        out[f"{layer}.calls"] += nc
    for metric, fns in TIMED_GROUPS.items():
        keys = {_key(fn) for fn in fns}
        out[metric] = sum(
            timing[3]
            for key in keys if key in stats
            for caller, timing in stats[key][4].items()
            if caller not in keys)
    for metric, fns in COUNTED_GROUPS.items():
        out[metric] = sum(stats[_key(fn)][1] for fn in fns
                          if _key(fn) in stats)
    return out


class MachineLog:
    """Build probe that folds each machine's modelled counters into running
    totals once its run is over (when the next machine is built, or at
    :meth:`close`), so a pass never holds more than one machine alive."""

    def __init__(self) -> None:
        self.events = 0
        self.sdma_descs = {c.value: 0 for c in ALL_CONFIGS}
        self.offloads = {c.value: 0 for c in ALL_CONFIGS}
        self.fast = 0
        self.fast_offloaded = 0
        self._last: Optional[Machine] = None

    def on_machine_built(self, machine: Machine) -> None:
        """PicoTune probe hook: the previous machine has finished."""
        self._fold()
        self._last = machine

    def close(self) -> None:
        """Fold the last machine built."""
        self._fold()

    def _fold(self) -> None:
        machine, self._last = self._last, None
        if machine is None:
            return
        sim = machine.sim
        # events stepped = sequence numbers issued minus events still
        # queued; ``repr(itertools.count)`` reads the counter without
        # advancing it
        self.events += int(repr(sim._seq)[6:-1]) - len(sim._heap)
        config = machine.os_config.value
        report = machine.tracer.report()
        self.sdma_descs[config] += int(
            report.get("hfi.sdma_descs", {}).get("count", 0))
        self.offloads[config] += int(
            report.get("offload.calls", {}).get("count", 0))
        if config == "mckernel_hfi":
            for name, entry in report.items():
                if name.startswith("pico.fast."):
                    self.fast += int(entry["count"])
                elif name.startswith("pico.offload."):
                    self.fast_offloaded += int(entry["count"])

    def metrics(self) -> Dict[str, float]:
        """``sim.events`` and the ``model.*`` counters of the pass."""
        out: Dict[str, float] = {"sim.events": self.events}
        for config in self.sdma_descs:
            out[f"model.sdma_descs.{config}"] = self.sdma_descs[config]
            out[f"model.offloads.{config}"] = self.offloads[config]
        total = self.fast + self.fast_offloaded
        out["model.fastpath_ratio"] = self.fast / total if total else 0.0
        return out


def profiled(run: Callable[[], object]) -> Tuple[object, Dict[str, float]]:
    """Run one pass under cProfile with a :class:`MachineLog` installed;
    returns the pass output and its layer and model metrics."""
    log = MachineLog()
    profile = cProfile.Profile()
    enable_tune_probe(log)
    try:
        profile.enable()
        try:
            units = run()
        finally:
            profile.disable()
    finally:
        enable_tune_probe(None)
    log.close()
    metrics = profile_metrics(pstats.Stats(profile).stats)
    metrics.update(log.metrics())
    return units, metrics


def critical_path_metrics(run: Callable[[], object]
                          ) -> Tuple[object, Dict[str, float]]:
    """Run one pass with PicoTrace spans on; returns the pass output and
    the per-category critical path of each config's largest message, in
    simulated microseconds."""
    collector = SpanCollector()
    enable_tracing(collector)
    try:
        units = run()
    finally:
        enable_tracing(None)
    collector.finalize()
    out: Dict[str, float] = {}
    for config in ALL_CONFIGS:
        target = message_completion(collector, config.label)
        cats = (breakdown_by_category(critical_path(collector, target))
                if target is not None else {})
        for cat in CP_CATEGORIES:
            out[f"model.cp.{config.value}.{cat}_us"] = \
                cats.get(cat, 0.0) * 1e6
    return units, out
