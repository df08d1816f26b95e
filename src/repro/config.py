"""The three operating-system configurations the paper evaluates, plus
the process-wide opt-in planes (faults, tracing, guard, tune, KSan,
lockdep)."""

from __future__ import annotations

from contextlib import contextmanager
from enum import Enum
from typing import Iterator


class Plane:
    """One opt-in plane: a process-wide value the models consult only
    while it is installed.

    A plane is off until :meth:`install` gives it a value, and
    ``enabled`` is exactly ``value is not None`` — so a hook past its
    ``X.enabled`` gate may use the value without a second ``None``
    test.  The value lives under a plane-specific attribute
    (``FAULTS.plan``, ``TRACE.collector``, ``GUARD.policy``,
    ``TUNE.probe``) that every hook site reads as one plain attribute
    load: with the plane off each hook costs a single branch and every
    experiment stays bit-identical to a build without it.  Lint rules
    PD007/PD011/PD013/PD014/PD016 keep each hook surface behind its
    gate.  Install for a scope with ``with X.installed(value):``.
    """

    def __init__(self, attr: str = "value"):
        self._attr = attr
        self.enabled = False
        setattr(self, attr, None)

    def install(self, value: object) -> None:
        """Install ``value`` for machines built after this call;
        ``None`` turns the plane off (the default state)."""
        self.enabled = value is not None
        setattr(self, self._attr, value)

    @contextmanager
    def installed(self, value: object) -> Iterator[object]:
        """Install ``value`` for the body of a ``with`` block and
        restore the previous state on exit, exceptions included."""
        previous = (self.enabled, getattr(self, self._attr))
        self.install(value)
        try:
            yield value
        finally:
            self.enabled, prior = previous
            setattr(self, self._attr, prior)


#: fault injection (:mod:`repro.faults`): ``plan`` is the active
#: :class:`~repro.faults.FaultPlan` of a chaos run
FAULTS = Plane("plan")

#: causal tracing (:mod:`repro.obs`): ``collector`` is the active
#: :class:`~repro.obs.spans.SpanCollector` of a traced run
TRACE = Plane("collector")

#: fast-path health management (:mod:`repro.guard`): ``policy`` is the
#: active :class:`~repro.guard.GuardPolicy` of a guarded run
GUARD = Plane("policy")

#: PicoTune observation (:mod:`repro.tune`): ``probe`` is the active
#: :class:`~repro.tune.env.EvalProbe`, told about every machine built
TUNE = Plane("probe")

#: KSan (:mod:`repro.analysis.ksan`): installed (any value, normally
#: ``True``), every machine puts a race detector on each node heap
KSAN = Plane()

#: lockdep (:mod:`repro.analysis.lockdep`): installed, every machine
#: gets one lock-order validator over its heaps and simulator waits
LOCKDEP = Plane()

# plain aliases of ``install``, kept only because the benchmark harness
# (perfbench/layers.py) imports these two names
enable_tracing = TRACE.install
enable_tune_probe = TUNE.install


class OSConfig(Enum):
    """Which OS stack runs the application ranks."""

    #: Fujitsu's HPC-optimized production Linux (nohz_full app cores).
    LINUX = "linux"
    #: Original IHK/McKernel: all device-driver syscalls offloaded.
    MCKERNEL = "mckernel"
    #: McKernel with the HFI PicoDriver fast path.
    MCKERNEL_HFI = "mckernel_hfi"

    @property
    def is_multikernel(self) -> bool:
        return self is not OSConfig.LINUX

    @property
    def has_picodriver(self) -> bool:
        return self is OSConfig.MCKERNEL_HFI

    @property
    def noisy_app_cores(self) -> bool:
        """Only Linux app cores see residual OS noise; LWK cores are
        tickless and isolated."""
        return self is OSConfig.LINUX

    @property
    def label(self) -> str:
        return {OSConfig.LINUX: "Linux",
                OSConfig.MCKERNEL: "McKernel",
                OSConfig.MCKERNEL_HFI: "McKernel+HFI1"}[self]


ALL_CONFIGS = (OSConfig.LINUX, OSConfig.MCKERNEL, OSConfig.MCKERNEL_HFI)
