"""Deterministic fault-injection plane.

The paper keeps the Linux slow path around because the fast path only
handles the common case; this package exists to make the *uncommon*
case testable.  A :class:`FaultPlan` assigns firing probabilities to
the fault points wired into the hardware and driver models, and a
:class:`FaultInjector` draws those decisions from seeded, per-point RNG
streams so every chaos run is reproducible.  Injection is globally
gated by the :data:`repro.config.FAULTS` plane (install a plan with
``with FAULTS.installed(plan):``, see :class:`repro.config.Plane`);
with the plane off the hooks cost one attribute load and a falsy
branch.
"""

from .plan import FAULT_POINTS, FaultInjector, FaultPlan, ScheduledFault

__all__ = ["FAULT_POINTS", "FaultInjector", "FaultPlan", "ScheduledFault"]
