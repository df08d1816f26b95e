"""Span/collector unit behavior plus the disabled-identity guarantee."""

import pytest

from repro.config import TRACE
from repro.experiments import run_fig4
from repro.obs import SpanCollector
from repro.units import KiB

SIZES = (16 * KiB, 256 * KiB)


# --- collector unit behavior -------------------------------------------------

def test_nesting_parents_and_stack():
    c = SpanCollector()
    outer = c.begin_span("outer", "n0/lwk")
    inner = c.begin_span("inner", "n0/lwk")
    assert inner.parent == outer.sid
    assert c.current().name == "inner"
    c.end_span(inner)
    assert c.current().name == "outer"
    c.end_span(outer)
    assert c.current() is None


def test_detached_span_takes_parent_but_not_stack():
    c = SpanCollector()
    outer = c.begin_span("outer", "n0/lwk")
    det = c.begin_span("desc", "n0/sdma0", detached=True)
    assert det.parent == outer.sid
    assert c.current() is outer      # detached spans never own the stack
    c.end_span(det)
    c.end_span(outer)


def test_instant_and_complete_spans():
    c = SpanCollector()
    inst = c.instant_span("irq", "n0/irq", args={"n": 1})
    assert inst.start == inst.end and inst.duration == 0.0
    comp = c.complete_span("wire", "fab", 1.0, 3.5, flow_from=inst)
    assert (comp.start, comp.end) == (1.0, 3.5)
    assert c.flows == [(1, inst.sid, comp.sid)]


def test_flow_from_none_is_dropped():
    c = SpanCollector()
    a = c.begin_span("a", "t", flow_from=None)
    c.end_span(a)
    assert c.flows == []


def test_end_span_merges_args_and_find_filters():
    c = SpanCollector()
    s = c.begin_span("x", "n0/lwk", cat="psm", args={"a": 1})
    c.end_span(s, args={"b": 2})
    assert s.args == {"a": 1, "b": 2}
    assert c.find(cat="psm") == [s]
    assert c.find(name="x", track_prefix="n0/") == [s]
    assert c.find(track_prefix="n1/") == []


def test_finalize_closes_dangling_spans():
    c = SpanCollector()
    s = c.begin_span("leaked", "t")
    assert s.end is None
    c.finalize()
    assert s.end is not None
    assert c.current() is None


# --- the identity guarantees of the TRACE gate -------------------------------

def test_installed_but_disabled_collector_stays_empty():
    """PD011's runtime contract: gates skip every emission when off."""
    idle = SpanCollector()
    TRACE.collector = idle
    TRACE.enabled = False
    try:
        run_fig4(sizes=SIZES, repetitions=1)
    finally:
        TRACE.install(None)
    assert idle.spans == [] and idle.flows == []


def test_tracing_never_perturbs_the_simulation():
    """Spans add no simulation events and no RNG draws, so fig4 is
    bit-identical with tracing off, installed-but-off, and fully on."""
    baseline = run_fig4(sizes=SIZES, repetitions=1)

    collector = SpanCollector()
    with TRACE.installed(collector):
        traced = run_fig4(sizes=SIZES, repetitions=1)
    assert collector.spans, "traced run recorded nothing"
    assert traced.series == baseline.series
    for cfg, series in baseline.series.items():
        for size, bw in series.items():
            assert traced.series[cfg][size] == pytest.approx(bw, rel=0,
                                                             abs=0)
