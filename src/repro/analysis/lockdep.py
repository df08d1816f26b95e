"""PicoLockdep: cross-kernel lock-order analysis, dynamic and static.

Cross-kernel synchronization is the fragile heart of PicoDriver (paper
section 3.3): both kernels spin on the same shared-heap lock words, a
spinner cannot sleep, and no watchdog survives a deadlock that wedges
*both* kernels.  KSan (:mod:`repro.analysis.ksan`) catches data races;
this module catches the ordering bugs KSan cannot see, with two
cooperating views:

**Dynamic view** — :class:`LockdepValidator`, a Linux-lockdep-style
runtime monitor.  Install it as a :class:`~repro.hw.memory.SharedHeap`
monitor (it coexists with KSan through the heap's monitor fan) and as
the simulator's ``wait_monitor``.  Every
:class:`~repro.core.sync.CrossKernelSpinLock` acquisition is resolved
to its declared :mod:`~repro.core.lockclasses` class and pushed on a
per-context (kernel x process/IRQ) held stack; each acquisition under
held locks adds edges to a global lock-class dependency graph.  It
reports, with KSan-style provenance (both acquisition sites, kernels,
held stacks, sim timestamps):

* **order cycles** — a cycle in the dependency graph is a potential
  AB-BA deadlock even when this run never hangs;
* **hierarchy violations** — acquisition order contradicting the
  declared ranks of :mod:`repro.core.lockclasses`;
* **IRQ inversions** — a class taken in the completion-IRQ top half
  that is also taken in process context ("with IRQs enabled");
* **held-across-wait** — a timed ``sim`` wait issued from inside a
  critical section, starving the peer kernel spinning on the word.

**Static view** — :class:`HeldLockWalk`, the one compile-time walk
that threads the held-lock set through a function body (``try``,
branches, loops, ``with``, acquire/release matching, lock-class
resolution).  Its lock-order subclass follows ``yield from self.*``
chains, extracts the :class:`LockGraph` (``python -m repro
lockgraph``), and backs lint rules PD008 (declared-hierarchy order)
and PD009 (no timed yield while a cross-kernel lock is held); PicoVet's
program scanner (:mod:`repro.analysis.vet_effects`) is the other
subclass, so the held sets behind PD015.4 and PD015.5 come from the
same walk.

``python -m repro lockdep <experiment>`` cross-checks the views: every
dynamically observed dependency edge must appear in the static graph.

Import discipline: this module is imported by the hardware layer (IRQ
context tagging), so at module level it may only depend on the stdlib
and :mod:`repro.analysis.lint`; everything heavier is imported lazily.
"""

from __future__ import annotations

import ast
import os
import sys
from collections import deque
from dataclasses import dataclass
from typing import (Dict, FrozenSet, Iterable, List, NamedTuple, Optional,
                    Sequence, Set, Tuple)

from ..errors import ReproError
from .ksan import call_site
from .lint import (Finding, _ClassInfo, _dotted, _suppressed,
                   default_lint_root, iter_python_files)

#: module-level registry of live validators, mirroring KSan's
#: ``ACTIVE_DETECTORS`` — the ``python -m repro lockdep`` driver
#: aggregates reports from here after running an experiment.
ACTIVE_VALIDATORS: List["LockdepValidator"] = []

#: instrumentation-layer files skipped when attributing a wait site
_SKIP_FILES = frozenset({"engine.py", "lockdep.py", "sync.py", "memory.py"})

#: call names treated as a timed wait by the dynamic and static checks
_WAIT_CALLS = frozenset({"timeout", "wait"})


def reset_active_validators() -> None:
    """Forget all registered validators (start of a lockdep run)."""
    ACTIVE_VALIDATORS.clear()


def active_lockdep_reports() -> List["LockdepReport"]:
    """All findings from every registered validator, in order."""
    reports: List[LockdepReport] = []
    for validator in ACTIVE_VALIDATORS:
        reports.extend(validator.reports)
    return reports


def active_dynamic_edges() -> Dict[Tuple[str, str], "DepEdge"]:
    """The union of every registered validator's dependency edges."""
    edges: Dict[Tuple[str, str], DepEdge] = {}
    for validator in ACTIVE_VALIDATORS:
        for key, edge in validator.dependency_edges().items():
            edges.setdefault(key, edge)
    return edges


# --- IRQ context tracking ----------------------------------------------------
#
# McKernel takes no device interrupts (section 3.3): completion and error
# IRQs always run on Linux CPUs.  The hardware/interrupt layers bracket
# top-half execution with irq_enter/irq_exit so lock acquisitions can be
# attributed to the right context.  The counters are plain module state:
# the discrete-event simulator is single-threaded, and handler generators
# are tagged per resume step (tag_irq_generator) precisely because other
# processes interleave between their yields.

_IRQ_DEPTH: Dict[str, int] = {}


def irq_enter(kernel: str = "linux") -> None:
    """Enter IRQ context on ``kernel`` (top-half dispatch)."""
    _IRQ_DEPTH[kernel] = _IRQ_DEPTH.get(kernel, 0) + 1


def irq_exit(kernel: str = "linux") -> None:
    """Leave IRQ context on ``kernel``."""
    depth = _IRQ_DEPTH.get(kernel, 0)
    if depth <= 0:
        raise ReproError(f"irq_exit on {kernel} without irq_enter")
    _IRQ_DEPTH[kernel] = depth - 1


def in_irq(kernel: str = "linux") -> bool:
    """True while ``kernel`` is executing an IRQ handler."""
    return _IRQ_DEPTH.get(kernel, 0) > 0


def tag_irq_generator(gen, kernel: str = "linux"):
    """Drive ``gen`` with IRQ context marked around every resume step.

    An IRQ handler that is itself a simulation process (the completion
    bottom halves) suspends at every ``yield``; while it is suspended,
    unrelated processes run.  A plain enter/exit bracket around the
    whole process would mis-tag those — so the wrapper enters IRQ
    context only for the instants the handler's own frames execute.
    """
    to_send = None
    to_throw = None
    while True:
        irq_enter(kernel)
        try:
            if to_throw is not None:
                exc, to_throw = to_throw, None
                target = gen.throw(exc)
            else:
                target = gen.send(to_send)
        except StopIteration as stop:
            return stop.value
        finally:
            irq_exit(kernel)
        try:
            to_send = yield target
        except BaseException as exc:  # forwarded into the handler
            to_throw = exc


# --- dynamic view ------------------------------------------------------------

@dataclass(frozen=True)
class LockAcquisition:
    """One attributed lock acquisition (kept for provenance)."""

    lock_name: str
    lock_class: str
    kernel: str
    context: str                   #: "process" or "irq"
    site: str                      #: "file.py:line in function"
    time: float                    #: simulation time of the grant
    rank: Optional[int]            #: declared hierarchy rank, if any
    held: Tuple[str, ...]          #: classes already held in this context

    def describe(self) -> str:
        """One-line rendering used inside lockdep reports."""
        held = "{" + ", ".join(self.held) + "}"
        rank = f" rank={self.rank}" if self.rank is not None else ""
        return (f"{self.lock_class}{rank} acquired by {self.kernel:8s} "
                f"[{self.context}] at t={self.time:.6g} holding {held} "
                f"— {self.site}")


class _LiveLock:
    """A currently held lock: its acquisition record plus the holder's
    critical-section frame (for held-across-wait attribution)."""

    __slots__ = ("lock", "acq", "frame")

    def __init__(self, lock, acq: LockAcquisition, frame):
        self.lock = lock
        self.acq = acq
        self.frame = frame


@dataclass(frozen=True)
class DepEdge:
    """First-observation witness of a lock-class dependency: ``dst`` was
    acquired while ``src`` was held."""

    src: str
    dst: str
    src_acq: LockAcquisition
    dst_acq: LockAcquisition

    def describe(self) -> List[str]:
        """Render the edge with both witness acquisitions."""
        return [f"{self.src} -> {self.dst}:",
                f"  {self.dst_acq.describe()}",
                f"  while holding: {self.src_acq.describe()}"]


@dataclass
class LockdepReport:
    """One lock-ordering hazard with full provenance."""

    kind: str                      #: order-cycle | hierarchy-violation |
    #: irq-inversion | held-across-wait
    title: str
    details: Tuple[str, ...]

    def render(self) -> str:
        """Multi-line report: headline plus indented provenance."""
        lines = [f"lockdep {self.kind}: {self.title}"]
        lines.extend(f"  {line}" for line in self.details)
        return "\n".join(lines)


class LockdepValidator:
    """The runtime deadlock validator.

    Install with ``heap.add_monitor(validator)`` (it implements only the
    ``on_lockdep_*`` hooks of the heap monitor protocol) and
    ``sim.wait_monitor = validator``.  One validator per machine is
    enough — the dependency graph is global by design, since AB-BA
    inversions span kernels and nodes.
    """

    def __init__(self, sim=None, name: str = "lockdep",
                 register: bool = True):
        self.sim = sim
        self.name = name
        self.reports: List[LockdepReport] = []
        #: per-context held stacks, keyed "kernel/context"
        self._held: Dict[str, List[_LiveLock]] = {}
        self._edges: Dict[Tuple[str, str], DepEdge] = {}
        #: lock class -> context -> first acquisition seen there
        self._usage: Dict[str, Dict[str, LockAcquisition]] = {}
        self._acquisitions = 0
        self._reported_cycles: Set[FrozenSet[str]] = set()
        self._reported_ranks: Set[Tuple[str, str]] = set()
        self._reported_inversions: Set[str] = set()
        self._reported_waits: Set[Tuple[str, str]] = set()
        if register:
            ACTIVE_VALIDATORS.append(self)

    # -- heap monitor protocol (no-ops: lockdep ignores data accesses) ----

    def annotate(self, kernel: str, label: str,
                 atomic: bool = False) -> None:
        """No-op: access labeling is KSan's concern."""

    def on_access(self, kind: str, addr: int, size: int, heap) -> None:
        """No-op: data accesses are KSan's concern."""

    def on_lock_acquired(self, name: str, kernel: str) -> None:
        """No-op: lockdep uses the richer ``on_lockdep_acquire``."""

    def on_lock_released(self, name: str, kernel: str) -> None:
        """No-op: lockdep uses the richer ``on_lockdep_release``."""

    # -- instrumentation entry points ------------------------------------

    def on_lockdep_acquire(self, lock, kernel: str, frame) -> None:
        """A :class:`CrossKernelSpinLock` was granted to ``kernel``;
        ``frame`` is the holder's critical-section frame."""
        from ..core.lockclasses import REGISTRY
        declared = REGISTRY.get(lock.name)
        context = "irq" if in_irq(kernel) else "process"
        key = f"{kernel}/{context}"
        stack = self._held.setdefault(key, [])
        acq = LockAcquisition(
            lock_name=lock.name, lock_class=lock.name, kernel=kernel,
            context=context, site=call_site(frame), time=self._now(),
            rank=None if declared is None else declared.rank,
            held=tuple(lv.acq.lock_class for lv in stack))
        self._acquisitions += 1
        self._track_usage(acq)
        for live in stack:
            self._add_edge(live.acq, acq)
            self._check_rank(live.acq, acq)
        stack.append(_LiveLock(lock, acq, frame))

    def on_lockdep_release(self, lock, kernel: str) -> None:
        """``kernel`` released ``lock``; pop it from its held stack."""
        for context in ("process", "irq"):
            stack = self._held.get(f"{kernel}/{context}")
            if not stack:
                continue
            for idx in range(len(stack) - 1, -1, -1):
                if stack[idx].lock is lock:
                    del stack[idx]
                    return

    def on_timed_wait(self, delay: float) -> None:
        """Simulator hook: a positive-delay timeout was created.  If the
        creating call chain belongs to a critical section that holds a
        cross-kernel lock, the spinning peer kernel starves for the
        whole wait — report it."""
        if not any(self._held.values()):
            return
        chain: Set[int] = set()
        frame = sys._getframe(1)
        while frame is not None:
            chain.add(id(frame))
            frame = frame.f_back
        for stack in self._held.values():
            for live in stack:
                if id(live.frame) not in chain:
                    continue
                site = call_site(sys._getframe(), _SKIP_FILES)
                dedup = (live.acq.lock_class, site)
                if dedup in self._reported_waits:
                    continue
                self._reported_waits.add(dedup)
                held = [lv.acq for lv in stack]
                details = [f"timed wait of {delay:.6g} at t={self._now():.6g}"
                           f" — {site}",
                           "while holding:"]
                details.extend(f"  {acq.describe()}" for acq in held)
                self.reports.append(LockdepReport(
                    kind="held-across-wait",
                    title=(f"{live.acq.kernel} waits {delay:.6g} holding "
                           f"{live.acq.lock_class}; the peer kernel spins "
                           f"on the lock word for the whole wait"),
                    details=tuple(details)))

    # -- results ----------------------------------------------------------

    def dependency_edges(self) -> Dict[Tuple[str, str], DepEdge]:
        """The observed lock-class dependency edges (first witnesses)."""
        return dict(self._edges)

    def acquired_classes(self) -> Set[str]:
        """Every lock class this validator saw acquired (the dynamic
        side of the vet crosscheck's acquired-class containment)."""
        return set(self._usage)

    def summary(self) -> str:
        """One-line status for the lockdep CLI."""
        status = (f"{len(self.reports)} finding(s)" if self.reports
                  else "no findings")
        return (f"[{self.name}] {status}; {self._acquisitions} "
                f"acquisition(s), {len(self._usage)} lock class(es), "
                f"{len(self._edges)} dependency edge(s)")

    # -- internals ---------------------------------------------------------

    def _now(self) -> float:
        return self.sim.now if self.sim is not None else 0.0

    def _track_usage(self, acq: LockAcquisition) -> None:
        usage = self._usage.setdefault(acq.lock_class, {})
        usage.setdefault(acq.context, acq)
        if ("irq" in usage and "process" in usage
                and acq.lock_class not in self._reported_inversions):
            self._reported_inversions.add(acq.lock_class)
            self.reports.append(LockdepReport(
                kind="irq-inversion",
                title=(f"{acq.lock_class} is taken in the IRQ top half "
                       f"and with IRQs enabled; the top half can spin on "
                       f"its own interrupted critical section"),
                details=(f"irq:     {usage['irq'].describe()}",
                         f"process: {usage['process'].describe()}")))

    def _check_rank(self, outer: LockAcquisition,
                    inner: LockAcquisition) -> None:
        if outer.rank is None or inner.rank is None:
            return
        if inner.rank > outer.rank:
            return
        key = (outer.lock_class, inner.lock_class)
        if key in self._reported_ranks:
            return
        self._reported_ranks.add(key)
        self.reports.append(LockdepReport(
            kind="hierarchy-violation",
            title=(f"{inner.lock_class} (rank {inner.rank}) acquired "
                   f"while holding {outer.lock_class} (rank "
                   f"{outer.rank}); the declared order is "
                   f"rank-increasing"),
            details=(f"inner: {inner.describe()}",
                     f"outer: {outer.describe()}")))

    def _add_edge(self, src_acq: LockAcquisition,
                  dst_acq: LockAcquisition) -> None:
        key = (src_acq.lock_class, dst_acq.lock_class)
        if key in self._edges:
            return
        self._edges[key] = DepEdge(src=key[0], dst=key[1],
                                   src_acq=src_acq, dst_acq=dst_acq)
        self._check_cycle(key)

    def _check_cycle(self, new_key: Tuple[str, str]) -> None:
        """A new edge (a, b) closes a cycle iff b already reaches a."""
        a, b = new_key
        if a == b:
            path = [new_key]
        else:
            parents: Dict[str, Optional[str]] = {b: None}
            queue = deque([b])
            while queue and a not in parents:
                node = queue.popleft()
                for src, dst in self._edges:
                    if src == node and dst not in parents:
                        parents[dst] = node
                        queue.append(dst)
            if a not in parents:
                return
            nodes = [a]
            while nodes[-1] != b:
                nodes.append(parents[nodes[-1]])
            nodes.reverse()                      # b ... a
            path = [new_key] + [(nodes[i], nodes[i + 1])
                                for i in range(len(nodes) - 1)]
        members = frozenset(n for edge in path for n in edge)
        if members in self._reported_cycles:
            return
        self._reported_cycles.add(members)
        details: List[str] = []
        for edge_key in path:
            details.extend(self._edges[edge_key].describe())
        cycle = " -> ".join([path[0][0]] + [dst for _src, dst in path])
        self.reports.append(LockdepReport(
            kind="order-cycle",
            title=(f"lock-class dependency cycle {cycle}: potential "
                   f"AB-BA deadlock between kernels, even though this "
                   f"run completed"),
            details=tuple(details)))


# --- static view -------------------------------------------------------------

@dataclass(frozen=True)
class StaticEdge:
    """Compile-time dependency: ``dst`` acquired at ``path:line`` (in
    ``func``, by ``kernel``) while ``src`` was held (taken at
    ``src_line``)."""

    src: str
    dst: str
    path: str
    line: int
    func: str
    kernel: str
    src_line: int

    def describe(self) -> str:
        """One-line rendering with the witness site and kernel."""
        return (f"{self.src} -> {self.dst}  [{self.path}:{self.line} in "
                f"{self.func}, kernel={self.kernel}, {self.src} taken at "
                f"line {self.src_line}]")


class LockGraph:
    """The compile-time lock-class graph extracted by the static pass."""

    def __init__(self) -> None:
        self.ranks: Dict[str, Optional[int]] = {}
        self.sites: Dict[str, List[str]] = {}
        self.edges: Dict[Tuple[str, str], StaticEdge] = {}

    def note_acquire(self, cls: str, rank: Optional[int],
                     site: str) -> None:
        """Record an acquisition site of lock class ``cls``."""
        self.ranks.setdefault(cls, rank)
        sites = self.sites.setdefault(cls, [])
        if site not in sites:
            sites.append(site)

    def add_edge(self, edge: StaticEdge) -> None:
        """Add a dependency edge, keeping the first witness."""
        self.edges.setdefault((edge.src, edge.dst), edge)

    def has_edge(self, src: str, dst: str) -> bool:
        """True if the graph contains the ``src -> dst`` dependency."""
        return (src, dst) in self.edges

    def hierarchy_violations(self) -> List[StaticEdge]:
        """Edges contradicting the declared ranks (incl. self-edges)."""
        out = []
        for (src, dst), edge in sorted(self.edges.items()):
            if src == dst:
                out.append(edge)
                continue
            src_rank, dst_rank = self.ranks.get(src), self.ranks.get(dst)
            if src_rank is not None and dst_rank is not None \
                    and dst_rank <= src_rank:
                out.append(edge)
        return out

    def cycles(self) -> List[List[StaticEdge]]:
        """One representative cycle per strongly connected component."""
        adj: Dict[str, List[str]] = {}
        for src, dst in self.edges:
            adj.setdefault(src, []).append(dst)
        out: List[List[StaticEdge]] = []
        for (src, dst) in sorted(self.edges):
            if src == dst:
                out.append([self.edges[(src, dst)]])
        for component in self._sccs(adj):
            if len(component) < 2:
                continue
            out.append(self._cycle_in(component))
        return out

    def _cycle_in(self, component: Sequence[str]) -> List[StaticEdge]:
        members = set(component)
        start = sorted(component)[0]
        parents: Dict[str, Optional[str]] = {start: None}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for src, dst in self.edges:
                if src != node or dst not in members:
                    continue
                if dst == start:
                    nodes = [node]
                    while parents[nodes[-1]] is not None:
                        nodes.append(parents[nodes[-1]])
                    nodes.reverse()              # start ... node
                    nodes.append(start)
                    return [self.edges[(nodes[i], nodes[i + 1])]
                            for i in range(len(nodes) - 1)]
                if dst not in parents:
                    parents[dst] = node
                    queue.append(dst)
        raise ReproError(  # pragma: no cover - SCC guarantees a cycle
            f"no cycle found inside SCC {sorted(component)}")

    @staticmethod
    def _sccs(adj: Dict[str, List[str]]) -> List[List[str]]:
        """Tarjan's strongly-connected components (graphs are tiny)."""
        index: Dict[str, int] = {}
        low: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        counter = [0]
        out: List[List[str]] = []
        nodes = sorted(set(adj) | {d for ds in adj.values() for d in ds})

        def strongconnect(v: str) -> None:
            index[v] = low[v] = counter[0]
            counter[0] += 1
            stack.append(v)
            on_stack.add(v)
            for w in adj.get(v, ()):
                if w not in index:
                    strongconnect(w)
                    low[v] = min(low[v], low[w])
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
            if low[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == v:
                        break
                out.append(component)

        for v in nodes:
            if v not in index:
                strongconnect(v)
        return out

    def to_dot(self) -> str:
        """Graphviz rendering (CI uploads this as an artifact)."""
        lines = ["digraph picodriver_locks {", "  rankdir=LR;",
                 '  node [shape=box, fontname="monospace"];']
        for cls in sorted(self.ranks):
            rank = self.ranks[cls]
            label = cls if rank is None else f"{cls}\\nrank {rank}"
            lines.append(f'  "{cls}" [label="{label}"];')
        for (src, dst), edge in sorted(self.edges.items()):
            base = os.path.basename(edge.path)
            lines.append(f'  "{src}" -> "{dst}" '
                         f'[label="{base}:{edge.line}"];')
        lines.append("}")
        return "\n".join(lines)

    def render(self) -> str:
        """Human-readable graph + cycle diagnostics."""
        lines = ["lock classes:"]
        for cls in sorted(self.ranks,
                          key=lambda c: (self.ranks[c] is None,
                                         self.ranks[c], c)):
            rank = self.ranks[cls]
            tag = "undeclared" if rank is None else f"rank {rank}"
            lines.append(f"  {cls} ({tag})")
            for site in self.sites.get(cls, []):
                lines.append(f"    acquired at {site}")
        lines.append("dependency edges:")
        if not self.edges:
            lines.append("  (none: no nested acquisition in the tree)")
        for _key, edge in sorted(self.edges.items()):
            lines.append(f"  {edge.describe()}")
        violations = self.hierarchy_violations()
        cycles = self.cycles()
        lines.append(f"hierarchy violations: {len(violations)}")
        for edge in violations:
            lines.append(f"  {edge.describe()}")
        lines.append(f"cycles: {len(cycles)}")
        for cycle in cycles:
            path = " -> ".join([cycle[0].src] + [e.dst for e in cycle])
            lines.append(f"  {path}")
            for edge in cycle:
                lines.append(f"    {edge.describe()}")
        return "\n".join(lines)


def _collect_bindings(tree: ast.AST) -> Dict[str, str]:
    """Map receiver names to lock-class names from constructor calls:
    ``self.sdma_lock = CrossKernelSpinLock(..., name="hfi1.sdma_submit")``
    binds both ``self.sdma_lock`` and ``sdma_lock``."""
    bindings: Dict[str, str] = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)):
            continue
        callee = _dotted(node.value.func).rsplit(".", 1)[-1]
        if callee != "CrossKernelSpinLock":
            continue
        name = None
        for kw in node.value.keywords:
            if kw.arg == "name" and isinstance(kw.value, ast.Constant) \
                    and isinstance(kw.value.value, str):
                name = kw.value.value
        if name is None:
            continue
        for target in node.targets:
            dotted = _dotted(target)
            bindings[dotted] = name
            bindings[dotted.rsplit(".", 1)[-1]] = name
    return bindings


class Held(NamedTuple):
    """One statically held lock."""

    cls: str                       #: resolved lock class
    rank: Optional[int]            #: declared rank, None if undeclared
    receiver: str                  #: dotted receiver that took it
    line: int                      #: line of the ``acquire``


class HeldLockWalk:
    """The compile-time held-lock walk over a function body.

    It threads the list of held cross-kernel locks through the
    statements; lint/lockgraph (PD008, PD009, :class:`LockGraph`) and
    vet's program scanner (``CallSite.held``, ``HeapAccess.locks``) are
    subclasses that override the hooks, so every static lock verdict
    rests on one model of the protocol:

    * ``yield from X.acquire(...)`` holds ``X``'s lock class from the
      next statement on; a statement-level ``X.release(...)`` drops the
      newest lock taken through the same receiver;
    * ``try`` handlers and ``else`` see the state at the end of the
      body, the conservative choice for a critical section (the lock is
      still held until the ``finally`` runs), and ``finally`` continues
      that state;
    * acquires inside an ``if``/``while``/``for`` body or ``else`` do
      not leak past it; a ``with`` body continues the enclosing state;
    * nested ``def``/``class`` bodies are not entered.
    """

    def __init__(self, bindings: Dict[str, str]):
        self.bindings = bindings

    def resolve(self, receiver: str) -> Tuple[str, Optional[int]]:
        """(lock class, declared rank) of an ``acquire`` receiver:
        constructor ``name=`` bindings first, then the registry's
        ``attrs`` map, else the bare attribute name (undeclared)."""
        from ..core.lockclasses import REGISTRY
        last = receiver.rsplit(".", 1)[-1]
        name = self.bindings.get(receiver) or self.bindings.get(last)
        if name is None:
            declared = REGISTRY.by_attr(last)
            if declared is not None:
                return declared.name, declared.rank
            name = last
        return name, REGISTRY.rank_of(name)

    def block(self, stmts: Sequence[ast.stmt], held: List[Held]) -> None:
        """Walk ``stmts`` in order, updating ``held`` in place."""
        for stmt in stmts:
            self.stmt(stmt, held)

    def nested(self, owner: ast.stmt, part: str,
               stmts: Sequence[ast.stmt], held: List[Held]) -> None:
        """Walk one block of compound statement ``owner``; ``part`` is
        ``body``, ``handler``, ``orelse`` or ``finalbody``.  Overridden
        to scope per-block state (vet's ``except`` and FAULTS scopes)."""
        self.block(stmts, held)

    def stmt(self, stmt: ast.stmt, held: List[Held]) -> None:
        """Walk one statement (the only held-set dispatch)."""
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return
        if isinstance(stmt, ast.Try):
            self.nested(stmt, "body", stmt.body, held)
            for handler in stmt.handlers:
                self.nested(stmt, "handler", handler.body, list(held))
            self.nested(stmt, "orelse", stmt.orelse, list(held))
            self.nested(stmt, "finalbody", stmt.finalbody, held)
            return
        if isinstance(stmt, (ast.If, ast.While, ast.For)):
            self.visit(stmt.iter if isinstance(stmt, ast.For)
                       else stmt.test, held)
            self.nested(stmt, "body", stmt.body, list(held))
            self.nested(stmt, "orelse", stmt.orelse, list(held))
            return
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                self.visit(item.context_expr, held)
            self.nested(stmt, "body", stmt.body, held)
            return
        self.visit(stmt, held)
        value = getattr(stmt, "value", None)
        call = (value.value if isinstance(value, (ast.Yield, ast.YieldFrom))
                else value)
        if not (isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)):
            return
        if isinstance(value, ast.YieldFrom):
            if call.func.attr == "acquire":
                receiver = _dotted(call.func.value)
                cls, rank = self.resolve(receiver)
                self.on_acquire(call, receiver, cls, rank, held)
                held.append(Held(cls, rank, receiver, call.lineno))
            else:
                self.on_delegate(call, held)
        elif isinstance(value, ast.Yield):
            if call.func.attr in _WAIT_CALLS:
                self.on_wait(call, held)
        elif call.func.attr == "release":
            receiver = _dotted(call.func.value)
            for idx in range(len(held) - 1, -1, -1):
                if held[idx].receiver == receiver:
                    del held[idx]
                    return

    # -- hooks (no-ops here) -----------------------------------------------

    def visit(self, node: ast.AST, held: List[Held]) -> None:
        """A simple statement, or the header expression of a compound
        one, about to run with ``held``."""

    def on_acquire(self, call: ast.Call, receiver: str, cls: str,
                   rank: Optional[int], held: List[Held]) -> None:
        """``call`` acquires ``cls`` while ``held`` is held."""

    def on_wait(self, call: ast.Call, held: List[Held]) -> None:
        """``call`` is a timed wait yielded while ``held`` is held."""

    def on_delegate(self, call: ast.Call, held: List[Held]) -> None:
        """``yield from call`` delegates to another generator."""


class _LockOrderCheck(HeldLockWalk):
    """The lint/lockgraph view of the walk over one module: PD008,
    PD009 and the lock-graph sites and edges."""

    def __init__(self, path: str, findings: List[Finding],
                 graph: Optional[LockGraph], bindings: Dict[str, str]):
        super().__init__(bindings)
        self.path = path
        self.findings = findings
        self.graph = graph
        self.qualname = ""
        self.cls_info: Optional[_ClassInfo] = None
        self.visiting: FrozenSet[str] = frozenset()
        self._emitted: Set[Tuple[int, int, str, str]] = set()

    def walk_function(self, fn: ast.FunctionDef, qualname: str,
                      cls_info: Optional[_ClassInfo],
                      held: List[Held]) -> None:
        """Walk ``fn``'s body with ``held`` (skipping recursion)."""
        if fn.name in self.visiting:
            return
        saved = self.qualname, self.cls_info, self.visiting
        self.qualname, self.cls_info = qualname, cls_info
        self.visiting = self.visiting | {fn.name}
        self.block(fn.body, held)
        self.qualname, self.cls_info, self.visiting = saved

    def on_delegate(self, call: ast.Call, held: List[Held]) -> None:
        func = call.func
        if (isinstance(func.value, ast.Name) and func.value.id == "self"
                and self.cls_info is not None
                and func.attr in self.cls_info.methods):
            # interprocedural: follow the delegation with the current
            # held set (helpers are assumed balanced; PD002 polices
            # leaks)
            self.walk_function(
                self.cls_info.methods[func.attr],
                f"{self.qualname.rsplit('.', 1)[0]}.{func.attr}",
                self.cls_info, held)

    def on_acquire(self, call: ast.Call, receiver: str, cls: str,
                   rank: Optional[int], held: List[Held]) -> None:
        qualname = self.qualname
        kernel = "?"
        if call.args and isinstance(call.args[0], ast.Constant) \
                and isinstance(call.args[0].value, str):
            kernel = call.args[0].value
        if self.graph is not None:
            self.graph.note_acquire(
                cls, rank, f"{self.path}:{call.lineno} in {qualname}")
        for entry in held:
            if self.graph is not None:
                self.graph.add_edge(StaticEdge(
                    src=entry.cls, dst=cls, path=self.path,
                    line=call.lineno, func=qualname, kernel=kernel,
                    src_line=entry.line))
            if entry.cls == cls:
                self._emit(call, "PD008",
                           f"'{receiver}.acquire' in {qualname} takes "
                           f"lock class {cls} while already holding it "
                           f"(line {entry.line}); the spinning acquirer "
                           f"never sees its own release")
            elif entry.rank is not None and rank is not None \
                    and rank <= entry.rank:
                self._emit(call, "PD008",
                           f"'{receiver}.acquire' in {qualname} takes "
                           f"{cls} (rank {rank}) while holding "
                           f"{entry.cls} (rank {entry.rank}, line "
                           f"{entry.line}); the declared hierarchy is "
                           f"rank-increasing")

    def on_wait(self, call: ast.Call, held: List[Held]) -> None:
        if not held:
            return
        held_desc = ", ".join(
            f"{entry.cls} (line {entry.line})" for entry in held)
        self._emit(call, "PD009",
                   f"timed yield '{_dotted(call.func)}' in "
                   f"{self.qualname} while holding cross-kernel lock(s) "
                   f"{held_desc}; the peer kernel spins for the whole "
                   f"wait")

    def _emit(self, node: ast.AST, code: str, message: str) -> None:
        key = (node.lineno, node.col_offset, code, message)
        if key in self._emitted:
            return
        self._emitted.add(key)
        self.findings.append(Finding(self.path, node.lineno,
                                     node.col_offset, code, message))


def check_lock_order(path: str, tree: ast.AST, findings: List[Finding],
                     graph: Optional[LockGraph] = None) -> None:
    """PD008 + PD009 over one parsed module; optionally accumulate the
    compile-time lock graph into ``graph``."""
    from ..core import lockclasses
    lockclasses.ensure_declarations()
    check = _LockOrderCheck(path, findings, graph, _collect_bindings(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            info = _ClassInfo(node)
            for mname in sorted(info.methods):
                check.walk_function(info.methods[mname],
                                    f"{node.name}.{mname}", info, [])
    if isinstance(tree, ast.Module):
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                check.walk_function(node, node.name, None, [])


def build_static_lock_graph(
        paths: Optional[Iterable[str]] = None
) -> Tuple[LockGraph, List[Finding]]:
    """Extract the lock graph (and PD008/PD009 findings, with
    ``# pd-ignore`` suppression honoured) from every module under
    ``paths`` (default: the installed ``repro`` tree)."""
    from . import astcache
    target = [default_lint_root()] if paths is None else list(paths)
    graph = LockGraph()
    findings: List[Finding] = []
    for filename in iter_python_files(target):
        module = astcache.parse_module(filename)
        if not module.ok:
            exc = module.error
            findings.append(Finding(filename, exc.lineno or 1,
                                    (exc.offset or 1) - 1, "PD000",
                                    f"syntax error: {exc.msg}"))
            continue
        module_findings: List[Finding] = []
        check_lock_order(filename, module.tree, module_findings,
                         graph=graph)
        lines = module.source.splitlines()
        findings.extend(f for f in module_findings
                        if not _suppressed(lines, f))
    return graph, findings


# --- dynamic ⊆ static --------------------------------------------------------

def uncontained_lock_facts(graph: LockGraph
                           ) -> Tuple[List[DepEdge], List[str]]:
    """The dynamic ⊆ static lock containment against ``graph``: every
    registered validator's dependency edges missing from it (sorted), and
    the classes some validator acquired that have no static site."""
    edges = [edge for key, edge in sorted(active_dynamic_edges().items())
             if not graph.has_edge(*key)]
    static_classes = set(graph.sites) | set(graph.ranks)
    classes = [lock_class for validator in ACTIVE_VALIDATORS
               for lock_class in sorted(validator.acquired_classes())
               if lock_class not in static_classes]
    return edges, classes
