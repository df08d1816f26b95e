"""Closed-form communication and syscall costs for the macro model.

Every formula mirrors the detailed stack:

* transport: PIO below 64KB, eager-SDMA to the expected threshold,
  windowed expected receive (TID) above it — with the per-descriptor
  engine overhead that separates 4KB-chopping Linux from the
  10KB-coalescing PicoDriver;
* syscall placement: native on Linux, offloaded over IKC on McKernel,
  local fast path for the PicoDriver-claimed calls;
* contention: offloaded calls pay FIFO queueing on ``os_cores`` CPUs plus
  a context-switch penalty growing with queue depth per CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from ..config import OSConfig
from ..params import Params
from ..units import pages_for


@dataclass(frozen=True)
class MsgCost:
    """Cost decomposition of one off-node point-to-point message."""

    nbytes: int
    #: one-way critical-path latency, uncontended
    latency: float
    #: sender-side caller-visible time (syscalls issued + injection)
    sender_time: float
    #: receiver-side caller-visible time (registrations, copies)
    receiver_time: float
    #: node wire occupancy (egress serialization incl. descriptor overhead)
    wire: float
    #: OS-CPU seconds this message costs the node's offload pool
    node_cpu_demand: float
    #: number of offloaded driver calls on the critical path
    chained_offloads: int
    #: McKernel-visible syscall times: name -> (count, seconds_per_call)
    syscalls: Tuple[Tuple[str, int, float], ...] = ()


class CommCostModel:
    """Per-configuration closed-form costs."""

    def __init__(self, params: Params, config: OSConfig):
        self.params = params
        self.config = config
        self.os_cpus = params.node.os_cores

    # ------------------------------------------------------------------
    # transport primitives
    # ------------------------------------------------------------------

    def desc_size(self) -> int:
        """Largest SDMA request this configuration's driver submits."""
        nic = self.params.nic
        return (nic.sdma_max_request if self.config.has_picodriver
                else nic.linux_max_request)

    def wire_time(self, nbytes: int) -> float:
        """Egress serialization: link time + per-descriptor overhead."""
        nic = self.params.nic
        descs = -(-nbytes // self.desc_size())
        return nbytes / nic.link_bandwidth + descs * nic.sdma_desc_overhead

    def pio_time(self, nbytes: int) -> float:
        """Programmed-I/O injection time for one message."""
        nic = self.params.nic
        return nic.pio_overhead + nbytes / nic.pio_bandwidth

    def shm_msg_time(self, nbytes: int) -> float:
        """Intra-node message: shared-memory transport, no driver."""
        nic = self.params.nic
        return (nic.shm_latency + nbytes / nic.shm_bandwidth
                + self.params.psm.mq_overhead)

    def eager_copy_lag(self, nbytes: int) -> float:
        """Receiver copy time not hidden by arrival pipelining."""
        nic = self.params.nic
        tail = min(nbytes, 8192) / nic.eager_copy_bandwidth
        return tail + max(0.0, nbytes * (1.0 / nic.eager_copy_bandwidth
                                         - 1.0 / nic.link_bandwidth))

    # ------------------------------------------------------------------
    # driver syscall handler times (as executed on the serving CPU)
    # ------------------------------------------------------------------

    def writev_handler(self, nbytes: int) -> float:
        """SDMA-send handler CPU time (gup/ptwalk + descriptor builds)."""
        sc = self.params.syscall
        if self.config.has_picodriver:
            spans = -(-nbytes // (2 * 1024 * 1024))  # contiguous large pages
            descs = -(-nbytes // self.desc_size())
            return (sc.writev_base_pico + spans * sc.ptwalk_per_span
                    + descs * sc.desc_build)
        pages = pages_for(nbytes)
        return (sc.writev_base + pages * sc.gup_per_page
                + pages * sc.desc_build)

    def tid_update_handler(self, nbytes: int) -> float:
        """Expected-receive registration handler CPU time."""
        sc = self.params.syscall
        nic = self.params.nic
        if self.config.has_picodriver:
            entries = max(1, -(-nbytes // nic.tid_max_span))
            return (sc.tid_ioctl_base_pico + entries * nic.tid_program_cost
                    + entries * sc.ptwalk_per_span)
        pages = pages_for(nbytes)
        return (sc.tid_ioctl_base + pages * sc.gup_per_page
                + pages * nic.tid_program_cost)

    def tid_free_handler(self, nbytes: int) -> float:
        """TID unregistration handler CPU time."""
        sc = self.params.syscall
        nic = self.params.nic
        if self.config.has_picodriver:
            entries = max(1, -(-nbytes // nic.tid_max_span))
            return sc.tid_ioctl_base_pico + entries * nic.tid_program_cost
        return (sc.tid_ioctl_base
                + pages_for(nbytes) * nic.tid_program_cost)

    # ------------------------------------------------------------------
    # syscall placement
    # ------------------------------------------------------------------

    def switch_penalty(self, depth_per_cpu: float) -> float:
        """Per-dispatch disturbance at the given queue depth per CPU."""
        ikc = self.params.ikc
        return ikc.context_switch_cost * min(max(depth_per_cpu - 1.0, 0.0),
                                             ikc.contention_cap)

    def driver_call(self, handler: float, fast_path: bool,
                    depth_per_cpu: float) -> Tuple[float, float]:
        """One driver syscall -> (caller-visible time, OS-CPU demand).

        ``depth_per_cpu`` is the phase's average offload queue depth per
        OS CPU; caller-visible time includes the FIFO wait it implies.
        """
        sc = self.params.syscall
        ikc = self.params.ikc
        if self.config is OSConfig.LINUX:
            return sc.linux_entry + handler, 0.0
        if fast_path and self.config.has_picodriver:
            return sc.lwk_entry + handler, 0.0
        switch = self.switch_penalty(depth_per_cpu)
        service = ikc.dispatch_cost + switch + handler + ikc.response_cost
        queue_wait = max(depth_per_cpu - 1.0, 0.0) * service
        visible = (sc.lwk_entry + ikc.request_cost + ikc.ipi_cost
                   + queue_wait + service)
        return visible, service

    # ------------------------------------------------------------------
    # message-level costs
    # ------------------------------------------------------------------

    def message(self, nbytes: int, depth_per_cpu: float = 0.0) -> MsgCost:
        """Cost of one off-node point-to-point message."""
        params = self.params
        psm = params.psm
        mq = psm.mq_overhead
        lat_wire = params.nic.wire_latency
        if nbytes <= params.nic.pio_threshold:
            send = mq + self.pio_time(nbytes)
            return MsgCost(nbytes=nbytes, latency=send + lat_wire + mq,
                           sender_time=send, receiver_time=mq,
                           wire=self.pio_time(nbytes), node_cpu_demand=0.0,
                           chained_offloads=0)
        if nbytes <= psm.expected_threshold:
            handler = self.writev_handler(nbytes)
            visible, demand = self.driver_call(handler, fast_path=True,
                                               depth_per_cpu=depth_per_cpu)
            wire = self.wire_time(nbytes)
            copy = self.eager_copy_lag(nbytes)
            return MsgCost(
                nbytes=nbytes,
                latency=mq + visible + wire + lat_wire + copy + mq,
                sender_time=mq + visible,
                receiver_time=mq + copy,
                wire=wire,
                node_cpu_demand=demand,
                chained_offloads=0 if demand == 0.0 else 1,
                syscalls=(("writev", 1, visible),))
        # expected receive: windowed rendezvous
        windows = -(-nbytes // psm.window_size)
        wsize = min(nbytes, psm.window_size)
        wv_vis, wv_dem = self.driver_call(self.writev_handler(wsize), True,
                                          depth_per_cpu)
        up_vis, up_dem = self.driver_call(self.tid_update_handler(wsize),
                                          True, depth_per_cpu)
        fr_vis, fr_dem = self.driver_call(self.tid_free_handler(wsize),
                                          True, depth_per_cpu)
        wire = self.wire_time(nbytes)
        wire_per_window = self.wire_time(wsize)
        # critical path: RTS, first registration + CTS, then windows
        # pipelined at the pace of the slowest station
        rndv = psm.rndv_window_overhead
        station = max(wire_per_window, up_vis + fr_vis + rndv, wv_vis)
        first = (mq + self.pio_time(psm.ctrl_bytes) + lat_wire    # RTS
                 + rndv + up_vis                                   # TID reg
                 + self.pio_time(psm.ctrl_bytes) + lat_wire)       # CTS
        latency = first + wv_vis + windows * station + lat_wire
        sender_time = mq + windows * wv_vis
        receiver_time = windows * (rndv + up_vis + fr_vis)
        demand = windows * (wv_dem + up_dem + fr_dem)
        chained = 0 if wv_dem == 0.0 else windows * 3
        return MsgCost(
            nbytes=nbytes, latency=latency, sender_time=sender_time,
            receiver_time=receiver_time, wire=wire, node_cpu_demand=demand,
            chained_offloads=chained,
            syscalls=(("writev", windows, wv_vis),
                      ("ioctl", windows, up_vis),
                      ("ioctl", windows, fr_vis)))

    # ------------------------------------------------------------------
    # non-driver syscalls
    # ------------------------------------------------------------------

    def plain_call(self, handler: float,
                   depth_per_cpu: float = 0.0) -> Tuple[float, float]:
        """A non-device syscall that offloads on both McKernel configs."""
        return self.driver_call(handler, fast_path=False,
                                depth_per_cpu=depth_per_cpu)

    def mmap_times(self, nbytes: int,
                   depth_per_cpu: float = 0.0) -> Dict[str, Tuple[float, float]]:
        """mmap+munmap pair -> {name: (visible, demand)}."""
        sc = self.params.syscall
        pages = pages_for(nbytes)
        mmap_h = sc.mmap_cost + pages * sc.page_map_cost
        munmap_h = sc.munmap_cost + pages * sc.page_unmap_cost
        if self.config is OSConfig.LINUX:
            return {"mmap": (sc.linux_entry + mmap_h, 0.0),
                    "munmap": (sc.linux_entry + munmap_h, 0.0)}
        # McKernel: both local, but munmap adds the offloaded shadow unmap
        shadow_vis, shadow_dem = self.plain_call(munmap_h, depth_per_cpu)
        return {"mmap": (sc.lwk_entry + mmap_h, 0.0),
                "munmap": (sc.lwk_entry + munmap_h + shadow_vis, shadow_dem)}

    def init_times(self, depth_per_cpu: float = 0.0) -> Dict[str, Tuple[float, float]]:
        """Per-rank device initialization (open, context, device mmaps)."""
        sc = self.params.syscall
        open_vis, open_dem = self.plain_call(sc.open_cost, depth_per_cpu)
        ioctl_vis, ioctl_dem = self.plain_call(0.7e-6, depth_per_cpu)
        mmap_vis, mmap_dem = self.plain_call(sc.mmap_cost, depth_per_cpu)
        out = {"open": (open_vis, open_dem),
               "ioctl": (ioctl_vis, ioctl_dem),
               "mmap": (mmap_vis, mmap_dem)}
        return out

    # ------------------------------------------------------------------
    # structural helpers
    # ------------------------------------------------------------------

    def tlb_factor(self) -> float:
        """Large-page/contiguous memory speedup of library-internal
        pointer-chasing work (MPI_Cart_create reorder on KNL)."""
        return 0.35 if self.config.is_multikernel else 1.0


def off_node_fraction(n_nodes: int, base: float = 0.45,
                      growth: float = 0.06, cap: float = 0.9) -> float:
    """Fraction of a rank's point-to-point partners on other nodes.

    0 on a single node (everything is shared memory); grows slowly with
    the node count as the decomposition surface crosses more node
    boundaries."""
    if n_nodes <= 1:
        return 0.0
    return min(cap, base + growth * math.log2(n_nodes))


def collective_rounds(kind: str, n_ranks: int) -> int:
    """Message rounds of the named collective algorithm at ``n_ranks``."""
    if n_ranks <= 1:
        return 0
    log2p = math.ceil(math.log2(n_ranks))
    if kind in ("barrier", "allreduce", "bcast", "scan"):
        return log2p
    if kind in ("allgather", "alltoallv"):
        return n_ranks - 1
    raise ValueError(f"unknown collective {kind!r}")
