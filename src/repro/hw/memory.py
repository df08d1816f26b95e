"""Physical memory: frame allocation with contiguity policies, and a
byte-addressable shared kernel heap.

Two distinct facilities live here:

* :class:`FrameAllocator` hands out physical page frames.  It supports the
  two allocation personalities the paper contrasts: Linux anonymous memory
  (fragmented 4KB frames) and McKernel anonymous memory (physically
  contiguous runs / large pages, section 3.4).  The SDMA request size — the
  heart of Figure 4 — falls directly out of the extents it returns.

* :class:`SharedHeap` is the direct-mapped kernel heap (``kmalloc`` arena)
  both kernels see after the PicoDriver virtual-address-space unification.
  It is backed by a real ``bytearray`` so that Linux-driver structures
  written on one side are *actually read back* byte-for-byte on the other
  through DWARF-extracted offsets.  The backing grows with the allocation
  break, so a node's mostly unused 8 MiB arena costs only what it holds.
"""

from __future__ import annotations

import bisect
from operator import sub
from typing import Dict, Iterable, List, NamedTuple, Set, Tuple

import numpy as np

from ..errors import OutOfMemory, ReproError
from ..units import PAGE_SIZE


class Extent(NamedTuple):
    """A run of physically contiguous frames: ``count`` frames from
    ``start`` (frame numbers, not byte addresses).  A named tuple, so the
    hundreds of thousands a scattered workload makes are cheap to build."""

    start: int
    count: int

    @property
    def end(self) -> int:
        return self.start + self.count


class FrameAllocator:
    """First-fit extent allocator over ``total_frames`` physical frames.

    Free space is a sorted list of disjoint ``[start, end)`` intervals.
    All operations maintain the invariant that intervals are sorted,
    non-empty and non-adjacent (adjacent intervals are merged on free).
    """

    def __init__(self, total_frames: int, frame_size: int = PAGE_SIZE,
                 name: str = "mem", base_frame: int = 0):
        if total_frames <= 0:
            raise ReproError(f"total_frames must be positive: {total_frames}")
        self.total_frames = total_frames
        self.frame_size = frame_size
        self.name = name
        #: first frame number managed (IHK partitions hand an LWK a window
        #: of the node's frames, keeping frame numbers globally meaningful)
        self.base_frame = base_frame
        self._free: List[List[int]] = [[base_frame, base_frame + total_frames]]
        self.allocated_frames = 0

    # -- queries -----------------------------------------------------------

    @property
    def free_frames(self) -> int:
        return self.total_frames - self.allocated_frames

    def free_intervals(self) -> List[Tuple[int, int]]:
        """Snapshot of the free list (for tests/inspection)."""
        return [(s, e) for s, e in self._free]

    def largest_free_run(self) -> int:
        """Length of the longest contiguous free run, in frames."""
        return max((e - s for s, e in self._free), default=0)

    # -- allocation ----------------------------------------------------------

    def alloc_contiguous(self, n_frames: int,
                         align: int = 1) -> Extent:
        """Allocate one physically contiguous run of ``n_frames`` frames,
        start aligned to ``align`` frames (e.g. 512 for a 2MB page)."""
        if n_frames <= 0:
            raise ReproError(f"n_frames must be positive: {n_frames}")
        for idx, (start, end) in enumerate(self._free):
            aligned = -(-start // align) * align
            if aligned + n_frames <= end:
                self._carve(idx, aligned, aligned + n_frames)
                return Extent(aligned, n_frames)
        raise OutOfMemory(
            f"{self.name}: no contiguous run of {n_frames} frames "
            f"(align={align}, largest free run={self.largest_free_run()})")

    def alloc(self, n_frames: int) -> List[Extent]:
        """Allocate ``n_frames`` frames in as few extents as possible
        (best-effort contiguity; splits across free intervals if needed)."""
        if n_frames <= 0:
            raise ReproError(f"n_frames must be positive: {n_frames}")
        if n_frames > self.free_frames:
            raise OutOfMemory(f"{self.name}: want {n_frames} frames, "
                              f"only {self.free_frames} free")
        # Greedy: take free intervals largest first (ties to the lowest
        # start), ranked once; only the last one taken can be partial.
        free = self._free
        lengths = [end - start for start, end in free]
        got: List[Extent] = []
        taken: Set[int] = set()  # intervals used up whole
        need = n_frames
        for idx in sorted(range(len(free)), key=lengths.__getitem__,
                          reverse=True):
            start, end = free[idx]
            take = min(need, end - start)
            got.append(Extent(start, take))
            need -= take
            if take < end - start:
                free[idx] = [start + take, end]
            else:
                taken.add(idx)
            if need == 0:
                break
        if taken:
            self._free = [iv for idx, iv in enumerate(free)
                          if idx not in taken]
        self.allocated_frames += n_frames
        return got

    def alloc_scattered(self, n_frames: int,
                        rng: np.random.Generator,
                        contig_prob: float = 0.0) -> List[Extent]:
        """Allocate ``n_frames`` as mostly *non*-contiguous frames — the
        post-fragmentation Linux anonymous-memory personality.

        Runs have geometric length with parameter ``contig_prob`` (expected
        run ``1/(1-contig_prob)``), separated by single-frame holes.  One
        sweep over just the free intervals it takes from; the leftovers
        are spliced back in place.  A window of one-frame free intervals
        (the holes earlier calls left) is taken with one slice, since such
        a run draws no coin; in a longer interval all whole runs are found
        with two bisects.  Under memory pressure the remainder is taken
        contiguously from the holes — which is also what a real buddy
        allocator degrades to.
        """
        if n_frames <= 0:
            raise ReproError(f"n_frames must be positive: {n_frames}")
        if n_frames > self.free_frames:
            raise OutOfMemory(f"{self.name}: want {n_frames} frames, "
                              f"only {self.free_frames} free")
        free = self._free
        # start the sweep at a random free interval so successive
        # allocations land in different regions
        rotation = int(rng.integers(0, len(free)))
        # Run-extension coins are drawn in one batch; a run of r frames
        # uses at most r coins, so n_frames coins always suffice.  Each
        # run still consumes exactly the coins the one-at-a-time draw
        # would (r - 1 successes, plus the failing coin unless the run hit
        # its cap), and the generator is rewound to consume just those.
        state = rng.bit_generator.state
        fails = np.flatnonzero(rng.random(n_frames) >= contig_prob)
        # A whole run ends at its failing coin and leaves a one-frame
        # hole, so across whole runs ``pos - coin`` grows by one per run:
        # the hole after the run ending at ``fails[j]`` lies at a fixed
        # offset from ``fails[j] + j``, which is strictly increasing.
        fail_pos = (fails + np.arange(fails.size)).tolist()
        fails = fails.tolist()
        coin = fail = 0  # next coin to use; index into ``fails``
        extents: List[Extent] = []
        # what is left of the swept intervals: holes and tails, each a
        # strict sub-range of its interval, so never adjacent to another
        high: List[List[int]] = []  # intervals from ``rotation`` on
        low: List[List[int]] = []   # intervals swept after wrapping round
        left = high
        need = n_frames
        idx, stop = rotation, len(free)
        # sweep from ``rotation`` to the end, then wrap round up to it
        while need > 0:
            if idx == stop:
                if left is low:
                    break
                idx, stop, left = 0, rotation, low
                continue
            start, end = free[idx]
            if end - start == 1:
                # one-frame intervals: each is a capped one-frame run
                # that uses no coin and leaves nothing behind
                last = min(stop, idx + need)
                nxt = idx + 1
                while nxt < last and free[nxt][1] - free[nxt][0] == 1:
                    nxt += 1
                extents += [Extent(iv[0], 1) for iv in free[idx:nxt]]
                need -= nxt - idx
                idx = nxt
                continue
            idx += 1
            # Whole runs: those whose hole still lies in the interval and
            # after which frames remain to take.  The run ending at
            # ``fails[j]`` leaves its hole at ``base + fail_pos[j]``.
            base = start - coin - fail + 1
            whole = min(bisect.bisect_left(fail_pos, end - base, fail),
                        bisect.bisect_left(fails, coin + need - 1, fail))
            pos = start
            if whole > fail:
                holes = [base + g for g in fail_pos[fail:whole]]
                starts = [start] + [hole + 1 for hole in holes[:-1]]
                extents += map(Extent, starts, map(sub, holes, starts))
                left += [[hole, hole + 1] for hole in holes]
                need -= fails[whole - 1] + 1 - coin
                coin, fail = fails[whole - 1] + 1, whole
                pos = holes[-1] + 1
            # then one capped run, to the end of the interval or of the
            # request: its coins all succeed (the failing one is not used)
            run = min(need, end - pos)
            if run > 0:
                extents.append(Extent(pos, run))
                coin += run - 1
                need -= run
                pos += run
            if pos < end:
                left.append([pos, end])
        rng.bit_generator.state = state
        rng.random(coin)
        if need > 0:
            # memory pressure: fill from the holes we just left
            for interval in high + low:
                if need == 0:
                    break
                take = min(need, interval[1] - interval[0])
                extents.append(Extent(interval[0], take))
                interval[0] += take
                need -= take
            high = [iv for iv in high if iv[0] < iv[1]]
            low = [iv for iv in low if iv[0] < iv[1]]
        if need > 0:
            raise OutOfMemory(f"{self.name}: accounting bug, "
                              f"{need} frames short")
        # splice the leftovers over the swept intervals
        if left is high:
            free[rotation:idx] = high
        else:
            self._free = low + free[idx:rotation] + high
        self.allocated_frames += n_frames
        return extents

    # -- freeing -------------------------------------------------------------

    def free(self, extents: Iterable[Extent]) -> None:
        """Return extents to the free pool (must have been allocated).

        One sort of the batch plus one merge pass into the free list,
        O(F + k log k) for F free intervals and k extents.  The whole batch
        is checked before anything changes: an empty or out-of-range
        extent, two extents of the batch that overlap, or an extent
        overlapping free space (double free) raise :class:`ReproError` and
        leave the allocator as it was.
        """
        batch = sorted(self._free_one(ext) for ext in extents)
        if not batch:
            return
        old = self._free
        merged: List[List[int]] = []
        copied = 0  # old intervals before this index are in ``merged``
        for start, end in batch:
            # old intervals starting at or before ``start`` precede it
            idx = bisect.bisect_left(old, [start + 1], copied)
            merged.extend(old[copied:idx])
            copied = idx
            # the tail so far holds both free intervals and the batch's
            # earlier extents, so this catches overlaps within the batch
            if merged and merged[-1][1] >= start:
                if merged[-1][1] > start:
                    raise ReproError(
                        f"double free: extent [{start}, {end}) overlaps "
                        f"{tuple(merged[-1])}, free or freed in this batch")
                merged[-1] = [merged[-1][0], end]
            else:
                merged.append([start, end])
            if copied < len(old) and old[copied][0] <= end:
                if old[copied][0] < end:
                    raise ReproError(
                        f"double free: extent [{start}, {end}) overlaps "
                        f"free interval {tuple(old[copied])}")
                merged[-1] = [merged[-1][0], old[copied][1]]
                copied += 1
        merged.extend(old[copied:])
        self._free = merged
        self.allocated_frames -= sum(end - start for start, end in batch)

    def _free_one(self, ext: Extent) -> Tuple[int, int]:
        """Check one extent of a batch being freed; its ``(start, end)``."""
        if ext.count <= 0:
            raise ReproError(f"freeing empty extent {ext}")
        if ext.start < self.base_frame or \
                ext.end > self.base_frame + self.total_frames:
            raise ReproError(f"extent {ext} outside memory")
        return ext.start, ext.end

    # -- internals -------------------------------------------------------------

    def _carve(self, idx: int, start: int, end: int) -> None:
        """Remove ``[start, end)`` from free interval ``idx``."""
        istart, iend = self._free[idx]
        assert istart <= start and end <= iend
        self.allocated_frames += end - start
        pieces = []
        if istart < start:
            pieces.append([istart, start])
        if end < iend:
            pieces.append([end, iend])
        self._free[idx:idx + 1] = pieces



class SharedHeap:
    """Byte-addressable kernel heap backed by a real ``bytearray``.

    Addresses returned by :meth:`kmalloc` are *kernel virtual addresses*
    (``base + offset``), matching the direct-mapping region both kernels
    share after unification.  Reads and writes move real bytes, so
    cross-kernel structure access through DWARF-extracted offsets is
    exercised for real, not pretended.

    The ``bytearray`` holds only the heap's first bytes: it starts empty
    and grows with zeros when the allocation break, or a write, passes
    its end.  Bytes beyond it were never written and read as zero, so the
    heap behaves as if all ``size`` bytes were zeroed up front.
    """

    def __init__(self, size: int, base: int = 0xFFFF_8800_0000_0000,
                 name: str = "kheap"):
        self.size = size
        self.base = base
        self.name = name
        self._mem = bytearray()
        self._brk = 0
        self._live: Dict[int, int] = {}  # addr -> size
        self._free_by_size: Dict[int, List[int]] = {}
        # opt-in access monitors (KSan race detector, lockdep validator);
        # when installed, every read/write is reported to them together
        # with the annotation the accessor layer declared
        self._monitors: List[object] = []
        self._monitor_view = None

    # -- monitors --------------------------------------------------------

    @property
    def monitor(self):
        """The installed access monitor: None, the single monitor, or a
        fan forwarding to all of them (accessor layers call it as one)."""
        return self._monitor_view

    @monitor.setter
    def monitor(self, value) -> None:
        self._monitors = [] if value is None else [value]
        self._refresh_monitor_view()

    def add_monitor(self, monitor) -> None:
        """Install an additional monitor alongside any existing ones, so
        KSan and the lockdep validator can watch the same heap."""
        self._monitors.append(monitor)
        self._refresh_monitor_view()

    def _refresh_monitor_view(self) -> None:
        if not self._monitors:
            self._monitor_view = None
        elif len(self._monitors) == 1:
            self._monitor_view = self._monitors[0]
        else:
            self._monitor_view = _MonitorFan(self._monitors)

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int) -> bool:
        """True if ``addr`` lies inside the heap's address range."""
        return self.base <= addr < self.end

    # -- allocation ------------------------------------------------------

    def kmalloc(self, size: int, align: int = 8) -> int:
        """Allocate ``size`` bytes, return the kernel virtual address."""
        if size <= 0:
            raise ReproError(f"kmalloc of non-positive size {size}")
        bucket = self._free_by_size.get(self._round(size))
        if bucket:
            addr = bucket.pop()
        else:
            off = -(-self._brk // align) * align
            if off + self._round(size) > self.size:
                raise OutOfMemory(f"{self.name}: heap exhausted "
                                  f"({self._brk}/{self.size} used)")
            self._brk = off + self._round(size)
            addr = self.base + off
            self._grow(self._brk)
        self._live[addr] = size
        self._mem[addr - self.base: addr - self.base + size] = bytes(size)
        return addr

    def kfree(self, addr: int) -> None:
        """Free an allocation (size-class recycled)."""
        size = self._live.pop(addr, None)
        if size is None:
            raise ReproError(f"{self.name}: kfree of unallocated {addr:#x}")
        self._free_by_size.setdefault(self._round(size), []).append(addr)
        # shadow-state reset: a recycled address is a fresh object, not a
        # continuation of the old one's access history (KSan would
        # otherwise report races between unrelated allocations)
        monitor = self._monitor_view
        if monitor is not None:
            fn = getattr(monitor, "on_free", None)
            if fn is not None:
                fn(addr, size, self)

    def live_objects(self) -> int:
        """Number of live allocations (leak checks)."""
        return len(self._live)

    # -- raw access ------------------------------------------------------

    def read(self, addr: int, size: int) -> bytes:
        """Read raw bytes at a kernel virtual address."""
        self._check(addr, size)
        if self.monitor is not None:
            self.monitor.on_access("read", addr, size, self)
        off = addr - self.base
        data = bytes(self._mem[off: off + size])
        if len(data) < size:  # past the backing: never written, so zero
            data += bytes(size - len(data))
        return data

    def write(self, addr: int, data: bytes) -> None:
        """Write raw bytes at a kernel virtual address."""
        self._check(addr, len(data))
        if self.monitor is not None:
            self.monitor.on_access("write", addr, len(data), self)
        off = addr - self.base
        self._grow(off + len(data))
        self._mem[off: off + len(data)] = data

    def read_u(self, addr: int, size: int) -> int:
        """Read a little-endian unsigned integer of ``size`` bytes."""
        return int.from_bytes(self.read(addr, size), "little")

    def write_u(self, addr: int, size: int, value: int) -> None:
        """Write a little-endian unsigned integer of ``size`` bytes."""
        self.write(addr, int(value).to_bytes(size, "little", signed=False))

    def _grow(self, length: int) -> None:
        """Extend the backing with zeros to at least ``length`` bytes."""
        if length > len(self._mem):
            self._mem.extend(bytes(length - len(self._mem)))

    def _check(self, addr: int, size: int) -> None:
        if not (self.base <= addr and addr + size <= self.end):
            raise ReproError(
                f"{self.name}: access [{addr:#x}, +{size}) outside heap "
                f"[{self.base:#x}, {self.end:#x})")

    @staticmethod
    def _round(size: int) -> int:
        """Size-class rounding (power of two, min 16) like a slab allocator."""
        size = max(size, 16)
        return 1 << (size - 1).bit_length()


class _MonitorFan:
    """Forwards the monitor protocol to every installed heap monitor.

    Monitors implement only the hooks they care about (KSan ignores the
    ``on_lockdep_*`` pair, lockdep ignores ``annotate``/``on_access``);
    the fan quietly skips hooks a monitor does not define.
    """

    __slots__ = ("_monitors",)

    def __init__(self, monitors: List[object]):
        self._monitors = list(monitors)

    def _fan(self, hook: str, *args, **kwargs) -> None:
        for monitor in self._monitors:
            fn = getattr(monitor, hook, None)
            if fn is not None:
                fn(*args, **kwargs)

    def annotate(self, *args, **kwargs) -> None:
        self._fan("annotate", *args, **kwargs)

    def on_access(self, *args, **kwargs) -> None:
        self._fan("on_access", *args, **kwargs)

    def on_free(self, *args, **kwargs) -> None:
        self._fan("on_free", *args, **kwargs)

    def on_lock_acquired(self, *args, **kwargs) -> None:
        self._fan("on_lock_acquired", *args, **kwargs)

    def on_lock_released(self, *args, **kwargs) -> None:
        self._fan("on_lock_released", *args, **kwargs)

    def on_lockdep_acquire(self, *args, **kwargs) -> None:
        self._fan("on_lockdep_acquire", *args, **kwargs)

    def on_lockdep_release(self, *args, **kwargs) -> None:
        self._fan("on_lockdep_release", *args, **kwargs)
