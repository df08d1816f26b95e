"""Syscall spans time exactly what the kernel profile accounts: per
call name, the ``cat="syscall"`` span durations under a kernel's track
sum to that kernel's :func:`~repro.profiling.profile_from_tracer`."""

import pytest

from repro.config import TRACE, OSConfig
from repro.experiments import build_machine
from repro.obs import SpanCollector
from repro.profiling import profile_from_tracer


def _traced_micro_run(os_config):
    """One offload-heavy micro workload with tracing on."""
    collector = SpanCollector()
    with TRACE.installed(collector):
        machine = build_machine(1, os_config)
        task = machine.spawn_rank(0, 0)

        def body():
            fd = yield from task.syscall("open", "/dev/hfi1_0")
            va = yield from task.syscall("mmap", 1 << 20)
            yield from task.syscall("munmap", va, 1 << 20)
            yield from task.syscall("close", fd)

        machine.sim.run(until=machine.sim.process(body()))
    collector.finalize()
    return collector, machine


def _span_times(collector, track_prefix=""):
    """Per-call sums of syscall span durations under one track subtree
    (spans are named ``linux.<call>`` / ``lwk.<call>``)."""
    times = {}
    for span in collector.spans:
        if span.cat == "syscall" and span.track.startswith(track_prefix):
            call = span.name.split(".", 1)[-1]
            times[call] = times.get(call, 0.0) + span.duration
    return times


def _assert_profiles_equal(span_times, tracer):
    from_tracer = profile_from_tracer(tracer)
    assert set(span_times) == set(from_tracer.times)
    for name, t in from_tracer.times.items():
        assert span_times[name] == pytest.approx(t, rel=1e-12)
    assert max(span_times, key=span_times.get) == from_tracer.dominant()


def test_span_profile_equals_tracer_profile_linux():
    """On Linux there is one kernel and one tracer; the span-backed
    profile must equal the tracer-counter one to the bit."""
    collector, machine = _traced_micro_run(OSConfig.LINUX)
    _assert_profiles_equal(_span_times(collector), machine.tracer)


def test_span_profile_equals_tracer_profile_mckernel():
    """On the multikernel each kernel accounts into its own tracer; the
    track prefix selects the matching span subset: ``machine.tracer`` is
    the LWK's (lwk.* spans), the proxied Linux side (including the
    shadow-unmap of Figure 9) accounts into the Linux kernel's tracer
    and shows up as linux.* spans on the linux track."""
    collector, machine = _traced_micro_run(OSConfig.MCKERNEL)
    _assert_profiles_equal(
        _span_times(collector, track_prefix="McKernel/node0/lwk"),
        machine.tracer)
    linux_times = _span_times(collector, track_prefix="McKernel/node0/linux")
    _assert_profiles_equal(linux_times, machine.nodes[0].linux.tracer)
    assert "munmap_shadow" in linux_times


def test_track_prefix_narrows_to_one_kernel():
    collector, machine = _traced_micro_run(OSConfig.MCKERNEL)
    lwk_names = {s.name for s in collector.spans if s.cat == "syscall"
                 and s.track.endswith("/lwk")}
    assert lwk_names, "no LWK syscall spans recorded"
    lwk_only = _span_times(collector, track_prefix="McKernel/node0/lwk")
    assert lwk_only
    whole = _span_times(collector)
    assert sum(lwk_only.values()) <= sum(whole.values())
