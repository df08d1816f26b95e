"""Unit and property tests for page tables and physical-span iteration."""

import bisect
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import PageFault, ReproError
from repro.hw import Extent, Mapping, PageTable
from repro.units import LARGE_PAGE_SIZE, PAGE_SIZE


def test_translate_basic():
    pt = PageTable("test")
    pt.map_page(0x10000, 0x40000)
    assert pt.translate(0x10000) == 0x40000
    assert pt.translate(0x10FFF) == 0x40FFF


def test_unmapped_access_faults():
    pt = PageTable("test")
    pt.map_page(0x10000, 0x40000)
    with pytest.raises(PageFault):
        pt.translate(0x11000)
    with pytest.raises(PageFault):
        pt.translate(0xFFFF)


def test_large_page_mapping():
    pt = PageTable("test")
    pt.map_page(2 * LARGE_PAGE_SIZE, 4 * LARGE_PAGE_SIZE, LARGE_PAGE_SIZE)
    assert pt.translate(2 * LARGE_PAGE_SIZE + 12345) == 4 * LARGE_PAGE_SIZE + 12345
    assert len(pt) == 1  # one entry, not 512


def test_overlap_rejected():
    pt = PageTable("test")
    pt.map_page(0x10000, 0x40000)
    with pytest.raises(ReproError):
        pt.map_page(0x10000, 0x50000)
    pt2 = PageTable("test")
    pt2.map_page(0, 0, LARGE_PAGE_SIZE)
    with pytest.raises(ReproError):
        pt2.map_page(PAGE_SIZE, 0x99000)  # inside the large page


def test_unaligned_mapping_rejected():
    pt = PageTable("test")
    with pytest.raises(ReproError):
        pt.map_page(0x10001, 0x40000)
    with pytest.raises(ReproError):
        pt.map_page(PAGE_SIZE, LARGE_PAGE_SIZE // 2, LARGE_PAGE_SIZE)


def test_phys_spans_merges_contiguous_pages():
    pt = PageTable("test")
    # three virtually and physically consecutive 4K pages
    for i in range(3):
        pt.map_page(0x10000 + i * PAGE_SIZE, 0x40000 + i * PAGE_SIZE)
    spans = pt.phys_spans(0x10000, 3 * PAGE_SIZE)
    assert spans == [(0x40000, 3 * PAGE_SIZE)]


def test_phys_spans_splits_discontiguous_pages():
    pt = PageTable("test")
    pt.map_page(0x10000, 0x40000)
    pt.map_page(0x11000, 0x90000)   # physically elsewhere
    spans = pt.phys_spans(0x10000, 2 * PAGE_SIZE)
    assert spans == [(0x40000, PAGE_SIZE), (0x90000, PAGE_SIZE)]


def test_phys_spans_partial_range():
    pt = PageTable("test")
    pt.map_page(0, 2 * LARGE_PAGE_SIZE, LARGE_PAGE_SIZE)
    spans = pt.phys_spans(0x800, 0x1000)
    assert spans == [(2 * LARGE_PAGE_SIZE + 0x800, 0x1000)]


def test_pages_view_expands_large_pages():
    """get_user_pages() sees base pages even inside a 2MB mapping."""
    pt = PageTable("test")
    pt.map_page(0, 0x200000, LARGE_PAGE_SIZE)
    pages = pt.pages(0, 16 * PAGE_SIZE)
    assert pages == [0x200000 + i * PAGE_SIZE for i in range(16)]


def test_map_extents_with_large_pages():
    pt = PageTable("test")
    frames = LARGE_PAGE_SIZE // PAGE_SIZE
    # a contiguous, aligned physical run -> 1 large page + ragged 4K tail
    end = pt.map_extents(0, [Extent(frames, frames + 3)],
                         use_large_pages=True)
    assert end == LARGE_PAGE_SIZE + 3 * PAGE_SIZE
    assert len(pt) == 1 + 3
    assert pt.phys_spans(0, end) == [(LARGE_PAGE_SIZE, end)]


def test_map_extents_without_large_pages():
    pt = PageTable("test")
    pt.map_extents(0, [Extent(512, 512)], use_large_pages=False)
    assert len(pt) == 512


def test_unmap_returns_physical_extents():
    pt = PageTable("test")
    pt.map_extents(0x10000, [Extent(7, 2)], pinned=True)
    released = pt.unmap_range(0x10000, 2 * PAGE_SIZE)
    assert released == [Extent(7, 1), Extent(8, 1)]
    with pytest.raises(PageFault):
        pt.translate(0x10000)


def test_partial_unmap_of_large_page_rejected():
    pt = PageTable("test")
    pt.map_page(0, 0, LARGE_PAGE_SIZE)
    with pytest.raises(ReproError):
        pt.unmap_range(0, PAGE_SIZE)


def test_pinned_flag():
    pt = PageTable("test")
    pt.map_page(0, 0, PAGE_SIZE, pinned=True)
    pt.map_page(PAGE_SIZE, 0x10000, PAGE_SIZE, pinned=False)
    assert pt.is_pinned(0, PAGE_SIZE)
    assert not pt.is_pinned(0, 2 * PAGE_SIZE)


@given(
    n_pages=st.integers(1, 64),
    seed=st.integers(0, 1000),
    offset=st.integers(0, PAGE_SIZE - 1),
)
@settings(max_examples=60)
def test_phys_spans_cover_exactly_the_requested_bytes(n_pages, seed, offset):
    """Span lists always partition the byte range, whatever the layout."""
    import numpy as np
    rng = np.random.default_rng(seed)
    pt = PageTable("prop")
    # random physical placement: shuffled frames, some adjacent by chance
    frames = rng.permutation(n_pages * 4)[:n_pages]
    for i, f in enumerate(sorted(frames[: n_pages])):
        pt.map_page(i * PAGE_SIZE, int(f) * PAGE_SIZE)
    length = n_pages * PAGE_SIZE - offset
    spans = pt.phys_spans(offset, length)
    assert sum(nbytes for _, nbytes in spans) == length
    # spans are maximal: consecutive spans are never physically adjacent
    for (p1, n1), (p2, _) in zip(spans, spans[1:]):
        assert p1 + n1 != p2


# --- batched map_extents / unmap_range vs the per-page model -------------------

def reference_map_extents(pt, vaddr, extents, pinned, use_large_pages):
    """Per-page model of ``map_extents``: one ``map_page`` per entry."""
    va = vaddr
    for ext in extents:
        pa, nbytes = ext.start * PAGE_SIZE, ext.count * PAGE_SIZE
        while nbytes:
            step = PAGE_SIZE
            if (use_large_pages and va % LARGE_PAGE_SIZE == 0
                    and pa % LARGE_PAGE_SIZE == 0
                    and nbytes >= LARGE_PAGE_SIZE):
                step = LARGE_PAGE_SIZE
            pt.map_page(va, pa, step, pinned)
            va += step
            pa += step
            nbytes -= step
    return va


def reference_unmap(pt, vaddr, length):
    """Per-page model of ``unmap_range`` over a table built by
    ``map_page``: look each entry up, release it, rebuild the rest."""
    kept, released = [], []
    for m in entries(pt):
        if m.vend <= vaddr or m.vaddr >= vaddr + length:
            kept.append(m)
        elif m.vaddr < vaddr or m.vend > vaddr + length:
            raise ReproError("partial unmap")
        else:
            released.append(Extent(m.paddr // PAGE_SIZE,
                                   m.page_size // PAGE_SIZE))
    fresh = PageTable(pt.owner)
    for m in kept:
        fresh.map_page(m.vaddr, m.paddr, m.page_size, m.pinned)
    return fresh, released


def entries(pt, limit=1 << 32):
    """Every entry of ``pt`` in address order, through the public lookup."""
    out, va = [], 0
    while va < limit and len(out) < len(pt):
        try:
            m = pt.lookup(va)
        except PageFault:
            va += PAGE_SIZE
            continue
        out.append(m)
        va = m.vend
    return out


LP_FRAMES = LARGE_PAGE_SIZE // PAGE_SIZE

#: page or frame numbers, 2MB-aligned half the time so large pages occur
page_number = st.one_of(st.integers(0, 3 * LP_FRAMES),
                        st.integers(0, 3).map(lambda k: k * LP_FRAMES))
region = st.tuples(
    page_number,                                           # virtual start
    st.lists(st.tuples(page_number,
                       st.one_of(st.integers(0, 24),
                                 st.integers(LP_FRAMES, LP_FRAMES + 24))),
             min_size=0, max_size=4),                      # extents
    st.booleans())                                         # pinned


@given(regions=st.lists(region, min_size=1, max_size=5),
       large=st.booleans(),
       cut=st.tuples(st.integers(0, 4 * LP_FRAMES),
                     st.integers(0, 2 * LP_FRAMES)))
@settings(max_examples=40, deadline=None)
# no extents at an address inside a 2MB page: maps nothing, overlaps nothing
@example(regions=[(1024, [(0, 512)], False), (1025, [], False)], large=True,
         cut=(0, 0))
def test_batched_map_and_unmap_match_per_page_model(regions, large, cut):
    pt, ref = PageTable("batch"), PageTable("model")
    for page, spans, pinned in regions:
        extents = [Extent(start, count) for start, count in spans]
        vaddr = page * PAGE_SIZE
        try:
            expect = reference_map_extents(PageTable("probe"), vaddr,
                                           extents, pinned, large)
            for m in entries(pt):
                # an empty target range holds no page, so it overlaps nothing
                if vaddr < expect and m.vaddr < expect and vaddr < m.vend:
                    raise ReproError("overlap")
        except ReproError:
            before = entries(pt)
            with pytest.raises(ReproError):
                pt.map_extents(vaddr, extents, pinned=pinned,
                               use_large_pages=large)
            assert entries(pt) == before
            continue
        assert pt.map_extents(vaddr, extents, pinned=pinned,
                              use_large_pages=large) == expect
        reference_map_extents(ref, vaddr, extents, pinned, large)
        assert len(pt) == len(ref)
        assert entries(pt) == entries(ref)
    vaddr, length = cut[0] * PAGE_SIZE, cut[1] * PAGE_SIZE
    try:
        ref, expect = reference_unmap(ref, vaddr, length)
    except ReproError:
        before = entries(pt)
        with pytest.raises(ReproError):
            pt.unmap_range(vaddr, length)
        assert entries(pt) == before
        return
    assert pt.unmap_range(vaddr, length) == expect
    assert len(pt) == len(ref)
    assert entries(pt) == entries(ref)


def test_overlapping_map_extents_leaves_table_unchanged():
    pt = PageTable("test")
    pt.map_extents(4 * PAGE_SIZE, [Extent(100, 2)])
    before = entries(pt)
    for vaddr in (0, 5 * PAGE_SIZE):
        with pytest.raises(ReproError):
            # the first pages would fit; a later one hits the mapping
            pt.map_extents(vaddr, [Extent(10, 3), Extent(50, 4)])
        assert entries(pt) == before
    assert pt.map_extents(0, [Extent(10, 4)]) == 4 * PAGE_SIZE
    assert len(pt) == 6
    # starting inside a large page: only the left neighbour overlaps
    pt.map_page(LARGE_PAGE_SIZE, 0, LARGE_PAGE_SIZE)
    before = entries(pt)
    with pytest.raises(ReproError):
        pt.map_extents(LARGE_PAGE_SIZE + PAGE_SIZE, [Extent(10, 1)])
    assert entries(pt) == before


def test_failed_partial_unmap_leaves_table_unchanged():
    pt = PageTable("test")
    pt.map_extents(0, [Extent(7, 3)])
    pt.map_page(LARGE_PAGE_SIZE, 0, LARGE_PAGE_SIZE)
    before = entries(pt)
    with pytest.raises(ReproError):
        pt.unmap_range(0, LARGE_PAGE_SIZE + PAGE_SIZE)
    assert entries(pt) == before


# --- empty and negative ranges -------------------------------------------------

def test_empty_range_has_no_pages():
    """A zero-length range touches no page: gup pins and charges nothing."""
    pt = PageTable("test")
    pt.map_extents(0x10000, [Extent(7, 2)])
    assert pt.pages(0x10010, 0) == []
    assert pt.phys_spans(0x10010, 0) == []
    assert pt.is_pinned(0x10010, 0) is True
    # ... even where nothing is mapped
    assert pt.pages(0x90010, 0) == []
    assert pt.phys_spans(0x90010, 0) == []
    assert pt.is_pinned(0x90010, 0) is True


@pytest.mark.parametrize("query", ["pages", "phys_spans", "is_pinned"])
def test_negative_length_is_rejected(query):
    pt = PageTable("test")
    pt.map_extents(0x10000, [Extent(7, 2)], pinned=True)
    for vaddr in (0x10010, 0x11000):
        with pytest.raises(ReproError):
            getattr(pt, query)(vaddr, -5)


# --- read side vs a per-page reference walk -------------------------------------

def model_entries(vaddr, extents, pinned, use_large_pages):
    """The page entries ``map_extents`` installs, one ``Mapping`` per page,
    chosen page by page with the greedy large-page rule."""
    out, va = [], vaddr
    for ext in extents:
        pa, nbytes = ext.start * PAGE_SIZE, ext.count * PAGE_SIZE
        while nbytes:
            step = PAGE_SIZE
            if (use_large_pages and va % LARGE_PAGE_SIZE == 0
                    and pa % LARGE_PAGE_SIZE == 0
                    and nbytes >= LARGE_PAGE_SIZE):
                step = LARGE_PAGE_SIZE
            out.append(Mapping(va, pa, step, pinned))
            va += step
            pa += step
            nbytes -= step
    return out


class PerPageModel:
    """A page table as a plain sorted list of page entries, queried by
    walking it one page at a time."""

    def __init__(self, owner, entries=()):
        self.owner = owner
        self.entries = sorted(entries)

    def entry(self, va):
        i = bisect.bisect_right(self.entries, (va, float("inf"))) - 1
        if i >= 0 and va < self.entries[i].vend:
            return self.entries[i]
        raise PageFault(self.owner, va, "no mapping")

    def translate(self, va):
        m = self.entry(va)
        return m.paddr + va - m.vaddr

    def pages(self, vaddr, length):
        if length < 0:
            raise ReproError("negative length")
        va, out = vaddr - vaddr % PAGE_SIZE, []
        while va < vaddr + length and length:
            out.append(self.translate(va))
            va += PAGE_SIZE
        return out

    def phys_spans(self, vaddr, length):
        if length < 0:
            raise ReproError("negative length")
        va, end, spans = vaddr, vaddr + length, []
        while va < end:
            m = self.entry(va)
            pa = m.paddr + va - m.vaddr
            chunk = min(m.vend, end) - va
            if spans and sum(spans[-1]) == pa:
                spans[-1] = (spans[-1][0], spans[-1][1] + chunk)
            else:
                spans.append((pa, chunk))
            va += chunk
        return spans

    def is_pinned(self, vaddr, length):
        if length < 0:
            raise ReproError("negative length")
        va = vaddr
        while va < vaddr + length:
            m = self.entry(va)
            if not m.pinned:
                return False
            va = m.vend
        return True

    def unmap(self, vaddr, length):
        hit = [m for m in self.entries
               if m.vaddr < vaddr + length and m.vend > vaddr]
        if any(m.vaddr < vaddr or m.vend > vaddr + length for m in hit):
            raise ReproError("partial unmap")
        self.entries = [m for m in self.entries
                        if m.vend <= vaddr or m.vaddr >= vaddr + length]
        return [Extent(m.paddr // PAGE_SIZE, m.page_size // PAGE_SIZE)
                for m in hit]


def outcome(fn, *args):
    """What a query returns, or the fault (and its address) it raises."""
    try:
        return "ok", fn(*args)
    except PageFault as fault:
        return "fault", fault.addr
    except ReproError:
        return "error", None


def check_read_side(pt, model, queries):
    assert len(pt) == len(model.entries)
    for m in model.entries:
        for va in (m.vaddr, m.vend - 1, m.vaddr + m.page_size // 2 + 3):
            assert pt.lookup(va) == m
            assert pt.translate(va) == model.translate(va)
    for vaddr, length in queries:
        for va in (vaddr, vaddr + length):
            assert outcome(pt.lookup, va) == outcome(model.entry, va)
            assert outcome(pt.translate, va) == outcome(model.translate, va)
        for query in ("pages", "phys_spans", "is_pinned"):
            assert outcome(getattr(pt, query), vaddr, length) == \
                outcome(getattr(model, query), vaddr, length), query


#: a query range: anywhere in the layout's span, unaligned, possibly
#: crossing gaps and page-size changes, empty or negative now and then
query = st.tuples(st.integers(0, 4 * LARGE_PAGE_SIZE),
                  st.one_of(st.integers(-PAGE_SIZE, 3 * PAGE_SIZE),
                            st.integers(0, LARGE_PAGE_SIZE + 4 * PAGE_SIZE)))


@given(regions=st.lists(region, min_size=1, max_size=5),
       large=st.booleans(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_read_side_matches_per_page_walk(regions, large, data):
    pt, model = PageTable("runs"), PerPageModel("runs")
    for page, spans, pinned in regions:
        extents = [Extent(start, count) for start, count in spans]
        vaddr = page * PAGE_SIZE
        new = model_entries(vaddr, extents, pinned, large)
        if new and any(m.vaddr < new[-1].vend and new[0].vaddr < m.vend
                       for m in model.entries):
            continue  # overlap: covered by the map/unmap property above
        pt.map_extents(vaddr, extents, pinned=pinned, use_large_pages=large)
        model = PerPageModel(model.owner, model.entries + new)
    # ranges anchored on mapped pages, so most of them hit something
    anchored = [(m.vaddr + delta, length) for m, delta, length in data.draw(
        st.lists(st.tuples(st.sampled_from(model.entries),
                           st.integers(-PAGE_SIZE, PAGE_SIZE),
                           query.map(lambda q: q[1])), max_size=8)
        if model.entries else st.just([]))]
    queries = data.draw(st.lists(query, max_size=8)) + anchored
    check_read_side(pt, model, queries)
    # cut a hole inside one run, then check again
    if model.entries:
        m = data.draw(st.sampled_from(model.entries))
        vaddr = m.vaddr - data.draw(st.integers(0, 8)) * PAGE_SIZE
        length = data.draw(st.integers(0, 8)) * PAGE_SIZE + m.page_size
        got = outcome(pt.unmap_range, vaddr, length)
        assert got == outcome(model.unmap, vaddr, length)
        check_read_side(pt, model, queries)


def test_unmap_inside_a_run_splits_it():
    """A cut from the middle of the 4KB head, through the 2MB page, into
    the 4KB tail leaves a piece of each 4KB run behind."""
    va = LARGE_PAGE_SIZE - 2 * PAGE_SIZE
    extents = [Extent(LP_FRAMES - 2, LP_FRAMES + 5)]
    pt = PageTable("split")
    pt.map_extents(va, extents, pinned=True, use_large_pages=True)
    model = PerPageModel("split", model_entries(va, extents, True, True))
    assert [m.page_size for m in model.entries[:4]] == [PAGE_SIZE] * 2 + \
        [LARGE_PAGE_SIZE, PAGE_SIZE]
    cut = (va + PAGE_SIZE, PAGE_SIZE + LARGE_PAGE_SIZE + PAGE_SIZE)
    assert pt.unmap_range(*cut) == model.unmap(*cut)
    assert len(pt) == 1 + 2  # one head page, two tail pages
    check_read_side(pt, model, [(0, 3 * LARGE_PAGE_SIZE),
                                (va + 5, 10),
                                (va + PAGE_SIZE, 10),
                                (2 * LARGE_PAGE_SIZE + PAGE_SIZE, 100)])


# --- typed columns ---------------------------------------------------------------

INT64_MAX = 2**63 - 1


def test_values_beyond_int64_raise_repro_error():
    """A value a 64-bit column cannot hold is the simulator's error, not
    the array's ``OverflowError``, and leaves the table unchanged."""
    pt = PageTable("test")
    pt.map_extents(0, [Extent(7, 2)])
    before = entries(pt)
    too_far = (INT64_MAX + 1) // PAGE_SIZE  # first page past the range
    bad_maps = [
        lambda: pt.map_page(too_far * PAGE_SIZE, 0),                # vaddr
        lambda: pt.map_page(0x10000, too_far * PAGE_SIZE),          # paddr
        lambda: pt.map_extents(too_far * PAGE_SIZE, [Extent(1, 1)]),
        lambda: pt.map_extents(0x10000, [Extent(too_far, 1)]),
        lambda: pt.map_extents(0x10000, [Extent(1, too_far)]),      # length
        lambda: pt.map_extents(0x10000, [Extent(1, 1), Extent(too_far, 1)],
                               use_large_pages=True),
        # the second run's start is one past the int64 range
        lambda: pt.map_extents((too_far - 1) * PAGE_SIZE,
                               [Extent(1, 1), Extent(3, 1)]),
    ]
    for bad in bad_maps:
        with pytest.raises(ReproError) as info:
            bad()
        assert not isinstance(info.value, OverflowError)
        assert entries(pt) == before
    # the last page of the range still fits
    pt.map_page((too_far - 1) * PAGE_SIZE, 0x40000)
    assert pt.translate(INT64_MAX) == 0x40000 + PAGE_SIZE - 1


def test_lookup_reports_pinned_as_bool():
    pt = PageTable("test")
    pt.map_extents(0, [Extent(7, 1)], pinned=True)
    pt.map_page(PAGE_SIZE, 0x10000, PAGE_SIZE, pinned=False)
    pt.map_extents(LARGE_PAGE_SIZE, [Extent(LP_FRAMES, LP_FRAMES)],
                   pinned=True, use_large_pages=True)
    for vaddr, flag in ((0, True), (PAGE_SIZE, False),
                        (LARGE_PAGE_SIZE, True)):
        assert pt.lookup(vaddr).pinned is flag
    # and after an unmap splits a run
    pt.unmap_range(0, PAGE_SIZE)
    assert pt.lookup(PAGE_SIZE).pinned is False


def test_scattered_runs_cost_at_most_48_bytes_each():
    """50,000 one-frame runs, mapped the way the Linux personality maps
    them (one batch per buffer), in typed columns: 33 bytes a run plus
    the arrays' growth slack.  Five lists of ints cost about 140."""
    runs = 50_000
    batches = [[Extent(3 * (b * 1000 + i) + 1, 1) for i in range(1000)]
               for b in range(runs // 1000)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pt = PageTable("footprint")
        vaddr = 0x10000
        for batch in batches:
            vaddr = pt.map_extents(vaddr, batch)
        cost = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(pt) == runs
    assert pt.phys_spans(0x10000, 2 * PAGE_SIZE) == [
        (PAGE_SIZE, PAGE_SIZE), (4 * PAGE_SIZE, PAGE_SIZE)]
    assert cost / runs <= 48
