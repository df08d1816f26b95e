"""Per-process page tables with mixed 4KB / 2MB mappings.

The structure that matters for the paper is :meth:`PageTable.phys_spans`:
given a virtual range it yields the *physically contiguous* spans backing
it, merged across page boundaries.  The Linux HFI1 driver never exploits
contiguity (it chops everything to PAGE_SIZE); the HFI PicoDriver walks
these spans directly and builds SDMA requests up to 10KB (section 3.4).
"""

from __future__ import annotations

import bisect
from array import array
from itertools import accumulate
from operator import floordiv
from typing import Iterable, Iterator, List, NamedTuple, Tuple

from ..errors import PageFault, ReproError
from ..units import LARGE_PAGE_SIZE, PAGE_SIZE
from .memory import Extent


class Mapping(NamedTuple):
    """One page-table entry at natural granularity: the 4KB or 2MB page
    :meth:`PageTable.lookup` reports for an address."""

    vaddr: int       # virtual start (aligned to page_size)
    paddr: int       # physical start (aligned to page_size)
    page_size: int   # PAGE_SIZE or LARGE_PAGE_SIZE
    pinned: bool = False

    @property
    def vend(self) -> int:
        return self.vaddr + self.page_size


class PageTable:
    """Sorted runs of pages with bisect lookup.

    A *run* is a stretch that is contiguous both virtually and physically,
    made of pages of one size (4KB or 2MB) that share one pinned flag.  The
    table is five parallel typed arrays sorted by virtual start: start,
    paddr, length in bytes and page size as signed 64-bit integers, pinned
    as one byte, so a run costs 33 bytes and no Python object.  A
    scattered Linux extent is one run; a McKernel extent is at most three
    (4KB head, 2MB middle, 4KB tail).  Page-granular entries exist only as
    the :class:`Mapping` :meth:`lookup` builds on demand; ``len()`` still
    counts them.  A value a 64-bit column cannot hold is a
    :class:`ReproError`.
    """

    def __init__(self, owner: str = ""):
        self.owner = owner
        self._starts, self._paddrs, self._lens, self._sizes, self._pinned \
            = _columns([])
        self._entries = 0  # page entries, for len()

    def __len__(self) -> int:
        return self._entries

    # -- construction ------------------------------------------------------

    def map_page(self, vaddr: int, paddr: int, page_size: int = PAGE_SIZE,
                 pinned: bool = False) -> None:
        """Install one page mapping (vaddr/paddr must be aligned)."""
        if page_size not in (PAGE_SIZE, LARGE_PAGE_SIZE):
            raise ReproError(f"unsupported page size {page_size}")
        if vaddr % page_size or paddr % page_size:
            raise ReproError(
                f"unaligned mapping va={vaddr:#x} pa={paddr:#x} size={page_size}")
        self._insert(*_columns([(vaddr, paddr, page_size, page_size,
                                 pinned)]))

    def map_extents(self, vaddr: int, extents: Iterable[Extent],
                    frame_size: int = PAGE_SIZE, pinned: bool = False,
                    use_large_pages: bool = False) -> int:
        """Map physical ``extents`` consecutively starting at ``vaddr``.

        Each extent becomes one 4KB run.  When ``use_large_pages`` is set
        (McKernel's policy), every 2MB-aligned 2MB-sized piece of an extent
        is mapped as a large page instead: the extent splits into a 4KB
        head, a 2MB middle and a 4KB tail, the pages a greedy page-by-page
        walk would pick.  Returns the end virtual address.

        The new runs are checked for overlap once, against the neighbours
        of the whole target range, and spliced in with one slice
        assignment; on any error the table is left unchanged.
        """
        if vaddr % PAGE_SIZE:
            raise ReproError(f"unaligned mapping va={vaddr:#x}")
        extents = list(extents)
        for ext in extents:
            if ext.start * frame_size % PAGE_SIZE or ext.count < 0 or \
                    ext.count * frame_size % PAGE_SIZE:
                raise ReproError(f"unaligned extent {ext} at va={vaddr:#x}")
        paddrs = [ext.start * frame_size for ext in extents if ext.count]
        lens = [ext.count * frame_size for ext in extents if ext.count]
        starts = list(accumulate(lens, initial=vaddr))
        end = starts.pop()
        if use_large_pages:
            self._insert(*_columns([
                (*run, pinned)
                for va, pa, nbytes in zip(starts, paddrs, lens)
                for run in _large_page_runs(va, pa, nbytes)]))
        elif lens:
            self._insert(_int64(starts), _int64(paddrs), _int64(lens),
                         array("q", [PAGE_SIZE]) * len(lens),
                         array("b", [bool(pinned)]) * len(lens))
        return end

    def unmap_range(self, vaddr: int, length: int) -> List[Extent]:
        """Remove all mappings intersecting ``[vaddr, vaddr+length)``;
        returns the physical extents released (frame numbers), one per
        page in address order.  A page only partly inside the range
        raises and leaves the table unchanged."""
        starts, lens, sizes = self._starts, self._lens, self._sizes
        end = vaddr + length
        lo = bisect.bisect_right(starts, vaddr) - 1
        if lo < 0 or starts[lo] + lens[lo] <= vaddr:
            lo += 1
        if lo == len(starts):
            return []
        # first page of the range: the one holding vaddr, or the next one
        cut_lo = max(starts[lo], vaddr - vaddr % sizes[lo])
        if cut_lo >= end:
            return []
        hi = bisect.bisect_left(starts, end, lo)
        cut_hi = min(end, starts[hi - 1] + lens[hi - 1])
        if cut_lo < vaddr or cut_hi % sizes[hi - 1]:
            size = sizes[lo] if cut_lo < vaddr else sizes[hi - 1]
            page = cut_lo if cut_lo < vaddr else cut_hi - cut_hi % size
            raise ReproError(
                f"partial unmap of a {size}-byte page at {page:#x} "
                f"(range [{vaddr:#x}, +{length:#x}))")
        released = [
            Extent(frame, size // PAGE_SIZE)
            for start, paddr, nbytes, size in zip(
                starts[lo:hi], self._paddrs[lo:hi], lens[lo:hi], sizes[lo:hi])
            for frame in range(
                (paddr - start + max(cut_lo, start)) // PAGE_SIZE,
                (paddr - start + min(cut_hi, start + nbytes)) // PAGE_SIZE,
                size // PAGE_SIZE)]
        # keep the parts of the end runs that lie outside the cut
        kept = self._piece(lo, starts[lo], cut_lo) + self._piece(
            hi - 1, cut_hi, starts[hi - 1] + lens[hi - 1])
        self._splice(lo, hi, *_columns(kept))
        self._entries -= len(released)
        return released

    # -- lookup ------------------------------------------------------------

    def lookup(self, vaddr: int) -> Mapping:
        """The page mapping covering ``vaddr`` (PageFault if none)."""
        i = self._run_at(vaddr)
        size = self._sizes[i]
        page = vaddr - vaddr % size
        return Mapping(page, self._paddrs[i] + page - self._starts[i], size,
                       bool(self._pinned[i]))

    def translate(self, vaddr: int) -> int:
        """Virtual to physical byte address."""
        i = self._run_at(vaddr)
        return self._paddrs[i] + vaddr - self._starts[i]

    def is_pinned(self, vaddr: int, length: int) -> bool:
        """True if every page in the range is pinned."""
        for i, _, _ in self._walk(vaddr, vaddr + length):
            if not self._pinned[i]:
                return False
        return True

    def phys_spans(self, vaddr: int, length: int) -> List[Tuple[int, int]]:
        """Physically contiguous ``(paddr, nbytes)`` spans backing the
        virtual range, merged across page boundaries.

        This is what the PicoDriver iterates instead of collecting page
        references: one span can cover many pages when the backing memory
        is contiguous (section 3.4).
        """
        spans: List[Tuple[int, int]] = []
        for i, lo, hi in self._walk(vaddr, vaddr + length):
            pa = self._paddrs[i] + lo - self._starts[i]
            if spans and spans[-1][0] + spans[-1][1] == pa:
                spans[-1] = (spans[-1][0], spans[-1][1] + hi - lo)
            else:
                spans.append((pa, hi - lo))
        return spans

    def pages(self, vaddr: int, length: int) -> List[int]:
        """Physical addresses of the 4KB pages backing the range — the
        ``get_user_pages()`` view the Linux driver collects (one entry per
        base page even inside a large page).  The range starts at the 4KB
        page holding ``vaddr``, like gup does; it is empty if
        ``length`` is 0."""
        if length < 0:
            raise ReproError(f"negative length {length}")
        out: List[int] = []
        if length == 0:
            return out
        for i, lo, hi in self._walk(vaddr - vaddr % PAGE_SIZE,
                                    vaddr + length):
            delta = self._paddrs[i] - self._starts[i]
            out.extend(range(lo + delta, hi + delta, PAGE_SIZE))
        return out

    # -- internals -----------------------------------------------------------

    def _run_at(self, vaddr: int) -> int:
        """Index of the run covering ``vaddr`` (PageFault if none)."""
        i = bisect.bisect_right(self._starts, vaddr) - 1
        if i >= 0 and vaddr < self._starts[i] + self._lens[i]:
            return i
        raise PageFault(self.owner, vaddr, "no mapping")

    def _walk(self, vaddr: int,
              end: int) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(run, lo, hi)`` for each run piece covering
        ``[vaddr, end)`` in address order; PageFault at the first unmapped
        address, ReproError on a negative length."""
        if end < vaddr:
            raise ReproError(f"negative length {end - vaddr}")
        if end == vaddr:
            return
        starts, lens = self._starts, self._lens
        i = self._run_at(vaddr)
        while True:
            run_end = starts[i] + lens[i]
            if run_end >= end:
                yield i, vaddr, end
                return
            yield i, vaddr, run_end
            vaddr = run_end
            i += 1
            if i == len(starts) or starts[i] != vaddr:
                raise PageFault(self.owner, vaddr, "no mapping")

    def _piece(self, i: int, lo: int, hi: int) -> List[_Run]:
        """Run ``i`` cut down to ``[lo, hi)``: one run, or none if the
        piece is empty."""
        if lo >= hi:
            return []
        return [(lo, self._paddrs[i] + lo - self._starts[i], hi - lo,
                 self._sizes[i], self._pinned[i])]

    def _insert(self, starts: array, paddrs: array, lens: array,
                sizes: array, pinned: array) -> None:
        """Splice new sorted, adjacent runs into the table after checking
        the covered range against its neighbours once."""
        if not starts:
            return
        vaddr, end = starts[0], starts[-1] + lens[-1]
        idx = bisect.bisect_left(self._starts, vaddr)
        if (idx < len(self._starts) and self._starts[idx] < end) or \
                (idx > 0 and self._starts[idx - 1] + self._lens[idx - 1]
                 > vaddr):
            raise ReproError(f"mapping overlap in [{vaddr:#x}, {end:#x})")
        self._splice(idx, idx, starts, paddrs, lens, sizes, pinned)
        self._entries += sum(map(floordiv, lens, sizes))

    def _splice(self, lo: int, hi: int, starts: array, paddrs: array,
                lens: array, sizes: array, pinned: array) -> None:
        """Replace runs ``[lo, hi)`` of every column."""
        self._starts[lo:hi] = starts
        self._paddrs[lo:hi] = paddrs
        self._lens[lo:hi] = lens
        self._sizes[lo:hi] = sizes
        self._pinned[lo:hi] = pinned


#: one run as a row: (start, paddr, length, page size, pinned)
_Run = Tuple[int, int, int, int, bool]


def _int64(values: List[int]) -> array:
    """A signed 64-bit column of ``values``; ReproError, not the array's
    OverflowError, for a value the column cannot hold."""
    try:
        return array("q", values)
    except OverflowError:
        bad = next(v for v in values if not -2**63 <= v < 2**63)
        raise ReproError(
            f"{bad:#x} does not fit a 64-bit page-table column") from None


def _columns(runs: List[_Run]) -> Tuple[array, ...]:
    """The five typed columns of ``runs``, given as rows."""
    starts, paddrs, lens, sizes, pinned = (
        map(list, zip(*runs)) if runs else ([],) * 5)
    return (_int64(starts), _int64(paddrs), _int64(lens), _int64(sizes),
            array("b", map(bool, pinned)))


def _large_page_runs(va: int, pa: int,
                     nbytes: int) -> Iterator[Tuple[int, int, int, int]]:
    """The runs one extent maps to under the large-page policy: 4KB pages
    until both addresses are 2MB aligned, as many 2MB pages as fit, then
    4KB pages again.  Yields ``(va, pa, nbytes, page_size)``."""
    head = nbytes
    if (va - pa) % LARGE_PAGE_SIZE == 0:
        head = min(nbytes, -va % LARGE_PAGE_SIZE)
    middle = (nbytes - head) // LARGE_PAGE_SIZE * LARGE_PAGE_SIZE
    if not middle:
        yield va, pa, nbytes, PAGE_SIZE
        return
    if head:
        yield va, pa, head, PAGE_SIZE
    yield va + head, pa + head, middle, LARGE_PAGE_SIZE
    tail = nbytes - head - middle
    if tail:
        yield va + head + middle, pa + head + middle, tail, PAGE_SIZE
