"""Property-based tests of frame-allocator invariants.

The batched ``free``, the length-ranked ``alloc`` and the batch-drawn
``alloc_scattered`` are each checked against a one-at-a-time reference
model kept in this file: same extents, same free list, same accounting
and, for the scattered draw, the same random-number stream.
"""

import bisect
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OutOfMemory, ReproError
from repro.hw import Extent, FrameAllocator


@st.composite
def alloc_free_script(draw):
    """A random interleaving of allocations and frees."""
    return draw(st.lists(
        st.one_of(
            st.tuples(st.just("alloc"), st.integers(1, 64)),
            st.tuples(st.just("alloc_contig"), st.integers(1, 64)),
            st.tuples(st.just("free"), st.integers(0, 100)),
        ),
        min_size=1, max_size=60))


@given(script=alloc_free_script())
@settings(max_examples=100)
def test_no_frame_is_ever_double_allocated(script):
    fa = FrameAllocator(2048)
    live = []          # list of extent-lists
    owned = set()      # all currently allocated frame numbers

    for op, arg in script:
        if op == "alloc":
            try:
                extents = fa.alloc(arg)
            except OutOfMemory:
                continue
            live.append(extents)
        elif op == "alloc_contig":
            try:
                extents = [fa.alloc_contiguous(arg)]
            except OutOfMemory:
                continue
            live.append(extents)
        else:
            if not live:
                continue
            extents = live.pop(arg % len(live))
            fa.free(extents)
            for ext in extents:
                for f in range(ext.start, ext.end):
                    owned.discard(f)
            continue
        for ext in extents:
            for f in range(ext.start, ext.end):
                assert f not in owned, f"frame {f} double-allocated"
                owned.add(f)

    # conservation: allocated + free == total
    assert fa.allocated_frames == len(owned)
    assert fa.allocated_frames + fa.free_frames == fa.total_frames
    # free list is sorted, disjoint, non-adjacent
    ivals = fa.free_intervals()
    for (s1, e1), (s2, e2) in zip(ivals, ivals[1:]):
        assert e1 < s2


@given(
    n=st.integers(1, 512),
    contig_prob=st.floats(0.0, 0.99),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=60)
def test_scattered_alloc_conserves_frames(n, contig_prob, seed):
    fa = FrameAllocator(4096)
    rng = np.random.default_rng(seed)
    extents = fa.alloc_scattered(n, rng, contig_prob=contig_prob)
    assert sum(e.count for e in extents) == n
    assert fa.allocated_frames == n
    # no overlap between extents
    seen = set()
    for ext in extents:
        for f in range(ext.start, ext.end):
            assert f not in seen
            seen.add(f)
    fa.free(extents)
    assert fa.allocated_frames == 0
    assert fa.free_intervals() == [(0, 4096)]


# --- one-at-a-time reference models -------------------------------------------

def reference_free(intervals, extents):
    """Per-extent free: bisect, overlap check and neighbour merge for each
    extent in turn.  Returns the new free list (the input is not changed)."""
    free = [list(iv) for iv in intervals]
    for ext in extents:
        starts = [s for s, _ in free]
        idx = bisect.bisect_right(starts, ext.start)
        if idx > 0 and free[idx - 1][1] > ext.start:
            raise ReproError("double free")
        if idx < len(free) and free[idx][0] < ext.end:
            raise ReproError("double free")
        free.insert(idx, [ext.start, ext.end])
        if idx + 1 < len(free) and free[idx][1] == free[idx + 1][0]:
            free[idx][1] = free[idx + 1][1]
            del free[idx + 1]
        if idx > 0 and free[idx - 1][1] == free[idx][0]:
            free[idx - 1][1] = free[idx][1]
            del free[idx]
    return [tuple(iv) for iv in free]


def reference_alloc(intervals, n_frames):
    """Greedy best-effort alloc: a full scan for the largest interval (the
    first on ties) once per extent carved.  Returns (extents, free list)."""
    free = [list(iv) for iv in intervals]
    got = []
    while n_frames > 0:
        idx = max(range(len(free)), key=lambda i: free[i][1] - free[i][0])
        start, end = free[idx]
        take = min(n_frames, end - start)
        got.append(Extent(start, take))
        n_frames -= take
        free[idx:idx + 1] = [[start + take, end]] if take < end - start \
            else []
    return got, [tuple(iv) for iv in free]


def reference_scattered(intervals, n_frames, rng, contig_prob):
    """Scattered alloc drawing one ``rng.random()`` coin per run extension,
    sweeping and rebuilding the whole free list.  Returns (extents, free
    list) and advances ``rng``."""
    extents, new_free = [], []
    need = n_frames
    rotation = int(rng.integers(0, len(intervals)))
    order = intervals[rotation:] + intervals[:rotation]
    for start, end in order:
        pos = start
        while pos < end and need > 0:
            run = 1
            while (run < need and pos + run < end
                   and rng.random() < contig_prob):
                run += 1
            take = min(run, need, end - pos)
            extents.append(Extent(pos, take))
            need -= take
            pos += take
            if pos < end and need > 0:
                new_free.append([pos, pos + 1])
                pos += 1
        if pos < end:
            new_free.append([pos, end])
    for interval in new_free:
        if need == 0:
            break
        take = min(need, interval[1] - interval[0])
        extents.append(Extent(interval[0], take))
        interval[0] += take
        need -= take
    merged = []
    for iv in sorted(iv for iv in new_free if iv[0] < iv[1]):
        if merged and merged[-1][1] == iv[0]:
            merged[-1][1] = iv[1]
        else:
            merged.append(iv)
    return extents, [tuple(iv) for iv in merged]


def assert_well_formed(fa):
    """The free list is sorted, non-empty, merged and non-adjacent, and
    accounts for every frame not allocated."""
    ivals = fa.free_intervals()
    assert all(s < e for s, e in ivals)
    for (_, e1), (s2, _) in zip(ivals, ivals[1:]):
        assert e1 < s2
    assert sum(e - s for s, e in ivals) == fa.free_frames


CONTIG_PROBS = (0.0, 0.02, 0.5, 0.95)


@st.composite
def lifecycle_script(draw):
    """Allocations of every kind, and frees of random batches of live
    allocations (several at once, in random order)."""
    return draw(st.lists(
        st.one_of(
            st.tuples(st.just("alloc"), st.integers(1, 96)),
            st.tuples(st.just("alloc_contig"), st.integers(1, 64)),
            st.tuples(st.just("alloc_scattered"), st.integers(1, 160),
                      st.sampled_from(CONTIG_PROBS)),
            st.tuples(st.just("free"), st.integers(1, 3),
                      st.integers(0, 2**16)),
        ),
        min_size=1, max_size=40))


def run_script(fa, script, rng, on_free=None):
    """Play a lifecycle script on ``fa``.  Each free is reported to
    ``on_free(batch, free_list_before, allocated_before)`` once done.
    Returns the allocations still live."""
    live = []
    for op in script:
        try:
            if op[0] == "alloc":
                live.append(fa.alloc(op[1]))
            elif op[0] == "alloc_contig":
                live.append([fa.alloc_contiguous(op[1])])
            elif op[0] == "alloc_scattered":
                live.append(fa.alloc_scattered(op[1], rng,
                                               contig_prob=op[2]))
            elif live:
                pick = random.Random(op[2])
                batch = []
                for _ in range(min(op[1], len(live))):
                    batch.extend(live.pop(pick.randrange(len(live))))
                pick.shuffle(batch)
                before, allocated = fa.free_intervals(), fa.allocated_frames
                fa.free(batch)
                if on_free is not None:
                    on_free(batch, before, allocated)
        except OutOfMemory:
            pass
        assert_well_formed(fa)
    return live


@given(script=lifecycle_script(), seed=st.integers(0, 2**31))
@settings(max_examples=80, deadline=None)
def test_batched_free_matches_per_extent_model(script, seed):
    fa = FrameAllocator(1024, base_frame=64)

    def check(batch, before, allocated):
        assert fa.free_intervals() == reference_free(before, batch)
        assert fa.allocated_frames == \
            allocated - sum(e.count for e in batch)

    run_script(fa, script, np.random.default_rng(seed), on_free=check)


def assert_rejected_unchanged(fa, batch):
    """``free(batch)`` raises and leaves the allocator as it was."""
    before, allocated = fa.free_intervals(), fa.allocated_frames
    with pytest.raises(ReproError):
        fa.free(batch)
    assert fa.free_intervals() == before
    assert fa.allocated_frames == allocated


@given(script=lifecycle_script(), seed=st.integers(0, 2**31),
       pick=st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_bad_free_batches_are_rejected_atomically(script, seed, pick):
    fa = FrameAllocator(1024, base_frame=64)
    live = run_script(fa, script, np.random.default_rng(seed))
    held = [ext for alloc in live for ext in alloc]
    if held:
        batch = pick.sample(held, pick.randint(1, len(held)))
        victim = pick.choice(batch)
        # the same extent twice in one batch
        assert_rejected_unchanged(fa, batch + [victim])
        # two extents of one batch overlapping in their last frame
        tail = Extent(victim.end - 1, 1)
        rest = [ext for ext in batch if ext is not victim]
        assert_rejected_unchanged(fa, rest + [victim, tail])
        # an otherwise valid batch carrying one bad extent
        assert_rejected_unchanged(fa, batch + [Extent(victim.start, 0)])
        assert_rejected_unchanged(fa, batch + [Extent(0, 1)])
        assert_rejected_unchanged(fa, batch + [Extent(64 + 1024, 1)])
    for start, end in pick.sample(fa.free_intervals(),
                                  min(3, len(fa.free_intervals()))):
        # overlapping a free interval: inside it, and straddling its edge
        assert_rejected_unchanged(fa, held + [Extent(start, end - start)])
        assert_rejected_unchanged(fa, [Extent(max(64, start - 1), 2)])
    # the rejected batches really were freeable as they stood
    fa.free(held)
    assert fa.allocated_frames == 0
    assert fa.free_intervals() == [(64, 64 + 1024)]


def test_double_free_within_one_batch_is_caught():
    fa = FrameAllocator(64)
    ext = fa.alloc_contiguous(8)
    assert_rejected_unchanged(fa, [ext, ext])
    assert_rejected_unchanged(fa, [Extent(0, 4), Extent(3, 2)])
    fa.free([Extent(0, 4), Extent(4, 4)])  # adjacent is fine
    assert fa.free_intervals() == [(0, 64)]
    assert_rejected_unchanged(fa, [Extent(10, 1)])


# --- alloc: ranked once, same extents as the per-extent scan ---------------------

@given(script=lifecycle_script(), seed=st.integers(0, 2**31),
       n=st.integers(1, 400))
@settings(max_examples=80, deadline=None)
def test_alloc_matches_per_extent_scan(script, seed, n):
    fa = FrameAllocator(1024, base_frame=64)
    run_script(fa, script, np.random.default_rng(seed))
    if n > fa.free_frames:
        return
    before = fa.free_intervals()
    expect, expect_free = reference_alloc(before, n)
    assert fa.alloc(n) == expect
    assert fa.free_intervals() == expect_free


def test_alloc_breaks_length_ties_toward_the_lowest_start():
    fa = FrameAllocator(40)
    holds = [fa.alloc_contiguous(n) for n in (4, 1, 4, 1, 6, 1, 4, 1)]
    fa.free([holds[0], holds[2], holds[4], holds[6]])  # 4, 4, 6, 4 (+ 18)
    expect, _ = reference_alloc(fa.free_intervals(), 32)
    got = fa.alloc(32)
    assert got == expect
    assert [e.count for e in got] == [18, 6, 4, 4]
    assert [e.start for e in got][2:] == [0, 5]


# --- alloc_scattered: batched coins, same stream as scalar draws ----------------

@pytest.mark.parametrize("contig_prob", CONTIG_PROBS)
@given(script=lifecycle_script(), seed=st.integers(0, 2**31),
       n=st.integers(1, 1024))
@settings(max_examples=40, deadline=None)
def test_scattered_matches_scalar_draws_and_rng_stream(contig_prob, script,
                                                       seed, n):
    fa = FrameAllocator(1024, base_frame=64)
    run_script(fa, script, np.random.default_rng(seed))
    n = min(n, fa.free_frames)
    if n == 0:
        return
    rng = np.random.default_rng(seed + 1)
    ref_rng = np.random.default_rng(seed + 1)
    rng.integers(0, 2)  # leave a buffered 32-bit half in the state
    ref_rng.integers(0, 2)
    expect, expect_free = reference_scattered(fa.free_intervals(), n,
                                              ref_rng, contig_prob)
    assert fa.alloc_scattered(n, rng, contig_prob=contig_prob) == expect
    assert fa.free_intervals() == expect_free
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("contig_prob", CONTIG_PROBS)
def test_scattered_memory_pressure_matches_scalar_draws(contig_prob):
    """Asking for nearly all free frames exhausts the sweep, so the rest
    comes from the holes it left (the memory-pressure branch)."""
    for seed in range(20):
        fa = FrameAllocator(300, base_frame=5)
        fa.alloc_scattered(40, np.random.default_rng(seed), 0.0)
        rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        n = fa.free_frames - seed
        expect, expect_free = reference_scattered(fa.free_intervals(), n,
                                                  ref_rng, contig_prob)
        assert fa.alloc_scattered(n, rng, contig_prob) == expect
        assert fa.free_intervals() == expect_free
        assert rng.bit_generator.state == ref_rng.bit_generator.state


# --- alloc_scattered at the shape an ``apps`` pass leaves --------------------------

HOLES_BEFORE, HOLES_AFTER, LONG = 1200, 1000, 4000
#: the allocator's first frame, and where its long interval starts
BASE = 64
LONG_START = BASE + 2 * HOLES_BEFORE


def apps_shaped_allocator():
    """Free list: 1,200 one-frame holes, one 4,000-frame interval, then
    1,000 more holes — the shape a long Linux run leaves behind, where
    almost every free interval is a hole an earlier scatter left."""
    total = 2 * HOLES_BEFORE + LONG + 2 * HOLES_AFTER + 1
    fa = FrameAllocator(total, base_frame=BASE)
    fa.alloc_contiguous(total)
    fa.free([Extent(BASE + 2 * i, 1) for i in range(HOLES_BEFORE)]
            + [Extent(LONG_START, LONG)]
            + [Extent(LONG_START + LONG + 1 + 2 * i, 1)
               for i in range(HOLES_AFTER)])
    assert len(fa.free_intervals()) == HOLES_BEFORE + 1 + HOLES_AFTER
    return fa


def hole(index):
    """The hole at free-list ``index`` before the long interval."""
    return Extent(BASE + 2 * index, 1)


def check_holes_only(expect, rot, n):
    # the request ends inside the window of holes
    assert expect == [hole(i) for i in range(rot, rot + n)]


def check_holes_then_long(expect, rot, n):
    # a window of holes from the rotation on, then runs in the long one
    assert expect[:HOLES_BEFORE - rot] == [
        hole(i) for i in range(rot, HOLES_BEFORE)]
    assert expect[HOLES_BEFORE - rot].start == LONG_START


def check_wrap_around(expect, rot, n):
    # the last holes, then round to the first ones and into the long one
    tail = HOLES_BEFORE + 1 + HOLES_AFTER - rot
    assert expect[tail:tail + HOLES_BEFORE] == [
        hole(i) for i in range(HOLES_BEFORE)]
    assert expect[tail + HOLES_BEFORE].start == LONG_START


def check_memory_pressure(expect, rot, n):
    # the sweep ends with the hole just before the rotation; the fill
    # then takes frames from the holes it left in the long interval
    last = expect.index(hole(rot - 1))
    assert last < len(expect) - 1
    assert expect[last + 1].start > LONG_START


#: (rotation predicate, request size, check that the named path ran)
APPS_SHAPED_CASES = {
    # lands inside the first holes and ends there
    "holes-only": (lambda rot: 100 <= rot < HOLES_BEFORE - 100,
                   lambda fa, rot: 50, check_holes_only),
    # lands inside the first holes: a window, then into the long interval
    "holes-then-long": (lambda rot: 100 <= rot < HOLES_BEFORE - 100,
                        lambda fa, rot: HOLES_BEFORE - rot + LONG // 3,
                        check_holes_then_long),
    # lands inside the last holes: runs off the end, wraps round to the
    # first holes and on into the long interval
    "wrap-around": (lambda rot: rot > HOLES_BEFORE + 100,
                    lambda fa, rot: (HOLES_BEFORE + 1 + HOLES_AFTER - rot)
                    + HOLES_BEFORE + LONG // 4,
                    check_wrap_around),
    # asks for almost every free frame: the sweep runs out and the rest
    # is filled from the holes it left
    "memory-pressure": (lambda rot: 100 <= rot < HOLES_BEFORE,
                        lambda fa, rot: fa.free_frames - 3,
                        check_memory_pressure),
}


@pytest.mark.parametrize("contig_prob", CONTIG_PROBS)
@pytest.mark.parametrize("case", sorted(APPS_SHAPED_CASES))
def test_scattered_matches_scalar_draws_at_apps_shape(case, contig_prob):
    lands, size, took_path = APPS_SHAPED_CASES[case]
    fa = apps_shaped_allocator()
    before = fa.free_intervals()
    rotations = {s: int(np.random.default_rng(s).integers(0, len(before)))
                 for s in range(100)}
    seed = next(s for s, rot in rotations.items() if lands(rot))
    n = size(fa, rotations[seed])
    rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    expect, expect_free = reference_scattered(before, n, ref_rng,
                                              contig_prob)
    took_path(expect, rotations[seed], n)
    assert fa.alloc_scattered(n, rng, contig_prob) == expect
    assert fa.free_intervals() == expect_free
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert_well_formed(fa)
