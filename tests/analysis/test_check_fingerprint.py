"""PicoCheck's run fingerprint against the greedy reference model.

``run_fingerprint`` linearizes each same-time group of steps by a greedy
rule: at every pick, emit the smallest-label step whose dependent
predecessors are all emitted, the earliest such step on a label tie.
The production code does this with one O(g²) dependence pass and a
Kahn-style heap; the reference below is the original O(g³) loop that
re-scans every remaining step at each pick.  The two must give the same
hex on every input, since the explorer's dedup counts depend on it.
"""

import hashlib
from typing import List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.check import (SMOKE_BOUNDS, Schedule, _canonical_group,
                                  _StepRecord, execute_run, get_scenarios,
                                  run_fingerprint)


# --- the reference model -------------------------------------------------------

def _reference_dependent(a: _StepRecord, b: _StepRecord) -> bool:
    if not a.resumed_ids or not b.resumed_ids:
        return True
    if a.resumed_ids & b.resumed_ids:
        return True
    if a.writes & (b.reads | b.writes):
        return True
    return bool(b.writes & a.reads)


def _reference_label(step: _StepRecord) -> Tuple:
    digest = hashlib.sha1(
        (repr(sorted(step.reads)) + "|"
         + repr(sorted(step.writes))).encode()).hexdigest()[:12]
    return (tuple(sorted(step.resumed_names)), digest)


def _reference_group(group: List[_StepRecord]) -> List[Tuple]:
    """The greedy linearization as first written: O(g³)."""
    labels = [_reference_label(s) for s in group]
    order: List[Tuple] = []
    remaining = list(range(len(group)))
    while remaining:
        best = None
        for i in remaining:
            if any(j < i and _reference_dependent(group[j], group[i])
                   for j in remaining):
                continue
            if best is None or labels[i] < labels[best]:
                best = i
        order.append(labels[best])
        remaining.remove(best)
    return order


def _reference_fingerprint(steps: List[_StepRecord]) -> str:
    h = hashlib.sha256()
    group: List[_StepRecord] = []
    when: Optional[float] = None
    for step in steps:
        if when is not None and step.when != when:
            h.update(repr((when, _reference_group(group))).encode())
            group = []
        when = step.when
        group.append(step)
    if group:
        h.update(repr((when, _reference_group(group))).encode())
    return h.hexdigest()


# --- random step traces --------------------------------------------------------

# Small pools make dependences, shared words and label ties common: a
# tie-break or a dropped edge then changes the emitted order.  Most real
# steps touch no heap word, so an empty footprint is drawn often.
_WORDS = [("kheap", 0x100 * k, size) for k in range(3) for size in (4, 8)]
_FOOTPRINT = st.one_of(st.just(frozenset()),
                       st.frozensets(st.sampled_from(_WORDS), max_size=2))

# pid 9 stands for "resumed no process" (a bare callback, dependent
# with every step)
_RESUMED = st.frozensets(st.sampled_from([0, 1, 2, 3, 4, 5, 9]), min_size=1,
                         max_size=2).map(
    lambda pids: frozenset() if 9 in pids else pids)

_steps = st.tuples(
    _RESUMED,
    st.frozensets(st.sampled_from(["irq", "worker"]), min_size=1,
                  max_size=1),
    _FOOTPRINT, _FOOTPRINT)


def _records(groups) -> List[_StepRecord]:
    records = []
    for t, group in enumerate(groups):
        for pids, names, reads, writes in group:
            rec = _StepRecord(float(t), len(records))
            rec.resumed_ids.update(pids)
            rec.resumed_names.update(names)
            rec.reads.update(reads)
            rec.writes.update(writes)
            records.append(rec)
    return records


@given(groups=st.lists(st.lists(_steps, min_size=1, max_size=40),
                       min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_fingerprint_matches_the_greedy_reference(groups):
    steps = _records(groups)
    assert run_fingerprint(steps) == _reference_fingerprint(steps)


def test_fingerprint_matches_the_reference_on_a_recorded_run():
    """Real step records, not only synthetic ones: the ping-pong
    scenario's root run on the fast-path configuration."""
    result = execute_run(get_scenarios()["pingpong"], "mckernel_hfi",
                         Schedule.empty(), SMOKE_BOUNDS)
    times = [rec.when for rec in result.step_records]
    assert len(times) > 100 and len(set(times)) < len(times)
    assert result.fingerprint == _reference_fingerprint(result.step_records)


def test_label_tie_goes_to_the_earlier_step():
    """Steps a and b share a label; c, with a smaller label, depends on
    b only.  Emitting a first (the earlier step on the tie) leaves c
    gated until b is out, so the smaller label comes last."""
    a, b, c = (_StepRecord(0.0, seq) for seq in range(3))
    a.resumed_ids.add(1)
    b.resumed_ids.add(2)
    c.resumed_ids.update((2, 3))     # shares b's process, not a's
    a.resumed_names.add("worker")
    b.resumed_names.add("worker")
    c.resumed_names.add("irq")       # sorts before "worker"
    worker, irq = _reference_label(a), _reference_label(c)
    assert worker == _reference_label(b) and irq < worker
    assert _canonical_group([a, b, c]) == [worker, worker, irq]
    assert _reference_group([a, b, c]) == [worker, worker, irq]
