"""Unit tests for the frame allocator and the shared kernel heap."""

import tracemalloc

import numpy as np
import pytest

from repro.config import ALL_CONFIGS
from repro.errors import OutOfMemory, ReproError
from repro.experiments.common import build_machine
from repro.hw import FrameAllocator, SharedHeap


# --- FrameAllocator ---------------------------------------------------------

def test_contiguous_alloc_returns_single_run():
    fa = FrameAllocator(1024)
    ext = fa.alloc_contiguous(100)
    assert ext.count == 100
    assert fa.free_frames == 924


def test_contiguous_alloc_respects_alignment():
    fa = FrameAllocator(4096)
    fa.alloc_contiguous(3)  # misalign the free list head
    ext = fa.alloc_contiguous(512, align=512)
    assert ext.start % 512 == 0


def test_contiguous_alloc_fails_when_fragmented():
    fa = FrameAllocator(100)
    keep = fa.alloc_contiguous(50)
    hole_makers = [fa.alloc_contiguous(1) for _ in range(50)]
    fa.free([keep])
    # largest run is 50 -> a 60-frame contiguous alloc must fail
    with pytest.raises(OutOfMemory):
        fa.alloc_contiguous(60)
    fa.free(hole_makers)
    assert fa.alloc_contiguous(100).count == 100


def test_alloc_splits_across_free_intervals():
    fa = FrameAllocator(100)
    a = fa.alloc_contiguous(40)       # [0,40)
    b = fa.alloc_contiguous(40)       # [40,80)
    fa.free([a])                      # free [0,40), keep [80,100) free
    extents = fa.alloc(50)
    assert sum(e.count for e in extents) == 50
    assert len(extents) == 2
    fa.free([b])


def test_alloc_overcommit_rejected():
    fa = FrameAllocator(10)
    with pytest.raises(OutOfMemory):
        fa.alloc(11)


def test_double_free_detected():
    fa = FrameAllocator(100)
    ext = fa.alloc_contiguous(10)
    fa.free([ext])
    with pytest.raises(ReproError):
        fa.free([ext])


def test_free_merges_intervals():
    fa = FrameAllocator(100)
    a = fa.alloc_contiguous(30)
    b = fa.alloc_contiguous(30)
    c = fa.alloc_contiguous(30)
    fa.free([a])
    fa.free([c])
    fa.free([b])  # middle free must merge everything back
    assert fa.free_intervals() == [(0, 100)]


def test_scattered_alloc_is_fragmented():
    fa = FrameAllocator(64 * 1024)
    rng = np.random.default_rng(1)
    extents = fa.alloc_scattered(1024, rng, contig_prob=0.02)
    assert sum(e.count for e in extents) == 1024
    mean_run = 1024 / len(extents)
    assert mean_run < 1.5  # almost every frame is its own extent


def test_scattered_alloc_with_high_contig_prob_coalesces():
    fa = FrameAllocator(64 * 1024)
    rng = np.random.default_rng(2)
    extents = fa.alloc_scattered(1024, rng, contig_prob=0.95)
    assert sum(e.count for e in extents) == 1024
    assert 1024 / len(extents) > 5  # long runs dominate


def test_scattered_alloc_overcommit_rejected():
    fa = FrameAllocator(10)
    with pytest.raises(OutOfMemory):
        fa.alloc_scattered(11, np.random.default_rng(0))


# --- SharedHeap ---------------------------------------------------------------

def test_kmalloc_roundtrip():
    heap = SharedHeap(4096, base=0x1000)
    addr = heap.kmalloc(64)
    assert heap.contains(addr)
    heap.write(addr, b"\xde\xad\xbe\xef")
    assert heap.read(addr, 4) == b"\xde\xad\xbe\xef"


def test_kmalloc_zeroes_memory():
    heap = SharedHeap(4096, base=0)
    a = heap.kmalloc(32)
    heap.write(a, b"\xff" * 32)
    heap.kfree(a)
    b = heap.kmalloc(32)
    assert b == a  # size-class reuse
    assert heap.read(b, 32) == bytes(32)


def test_kfree_unallocated_rejected():
    heap = SharedHeap(4096, base=0)
    with pytest.raises(ReproError):
        heap.kfree(0x10)


def test_heap_exhaustion():
    heap = SharedHeap(256, base=0)
    heap.kmalloc(128)
    with pytest.raises(OutOfMemory):
        heap.kmalloc(256)


def test_heap_out_of_bounds_access_rejected():
    heap = SharedHeap(64, base=0x100)
    with pytest.raises(ReproError):
        heap.read(0x100 + 60, 8)
    with pytest.raises(ReproError):
        heap.read(0x90, 4)


def test_heap_integer_access():
    heap = SharedHeap(4096, base=0)
    addr = heap.kmalloc(16)
    heap.write_u(addr + 8, 4, 0xCAFEBABE)
    assert heap.read_u(addr + 8, 4) == 0xCAFEBABE


def test_live_object_accounting():
    heap = SharedHeap(4096, base=0)
    a = heap.kmalloc(8)
    b = heap.kmalloc(8)
    assert heap.live_objects() == 2
    heap.kfree(a)
    heap.kfree(b)
    assert heap.live_objects() == 0


# --- SharedHeap backing grows with its break ----------------------------------

def test_read_past_the_break_returns_zeros():
    heap = SharedHeap(1 << 20, base=0x1000)
    a = heap.kmalloc(64)
    heap.write(a, b"\xff" * 64)
    # inside the heap, beyond anything allocated or written
    assert heap.read(0x1000 + 4096, 32) == bytes(32)
    # straddling the end of the written bytes
    assert heap.read(a + 60, 8) == b"\xff" * 4 + bytes(4)
    assert heap.read_u(heap.end - 8, 8) == 0


def test_write_past_the_break_reads_back():
    heap = SharedHeap(1 << 20, base=0)
    heap.write(0x8000, b"\xab\xcd")
    assert heap.read(0x7FFF, 4) == b"\x00\xab\xcd\x00"
    # the zeros in front of it stay zero, and kmalloc still starts at 0
    assert heap.read(0, 16) == bytes(16)
    assert heap.kmalloc(16) == 0


def test_access_outside_the_heap_still_raises():
    heap = SharedHeap(4096, base=0x10000)
    for addr, size in ((0x10000 - 1, 1), (0x10000 + 4096, 1),
                       (0x10000 + 4090, 8)):
        with pytest.raises(ReproError):
            heap.read(addr, size)
        with pytest.raises(ReproError):
            heap.write(addr, bytes(size))


def test_recycled_kmalloc_is_zeroed_past_the_first_allocation():
    heap = SharedHeap(1 << 16, base=0)
    first = [heap.kmalloc(100) for _ in range(4)]
    for addr in first:
        heap.write(addr, b"\x5a" * 100)
    heap.kfree(first[2])
    again = heap.kmalloc(90)  # same 128-byte size class
    assert again == first[2]
    assert heap.read(again, 90) == bytes(90)


def test_exhaustion_raises_at_the_same_allocation():
    heap = SharedHeap(1024, base=0)
    got = [heap.kmalloc(128) for _ in range(8)]
    assert got == [i * 128 for i in range(8)]
    with pytest.raises(OutOfMemory):
        heap.kmalloc(1)


@pytest.mark.parametrize("os_config", ALL_CONFIGS, ids=lambda c: c.value)
def test_machine_build_does_not_back_the_whole_heap(os_config):
    """Each node's 8 MiB heap is backed only up to its break, so building
    a 2-node machine stays far below the 16 MiB two full heaps take."""
    build_machine(2, os_config)  # warm imports and caches
    tracemalloc.start()
    try:
        machine = build_machine(2, os_config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(n.node.kheap.size == 8 << 20 for n in machine.nodes)
    assert peak < 2 << 20
