"""Unit and property tests for page tables and physical-span iteration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PageFault, ReproError
from repro.hw import Extent, PageTable
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
def test_batched_map_and_unmap_match_per_page_model(regions, large, cut):
    pt, ref = PageTable("batch"), PageTable("model")
    for page, spans, pinned in regions:
        extents = [Extent(start, count) for start, count in spans]
        vaddr = page * PAGE_SIZE
        try:
            expect = reference_map_extents(PageTable("probe"), vaddr,
                                           extents, pinned, large)
            for m in entries(pt):
                if m.vaddr < expect and vaddr < m.vend:
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
