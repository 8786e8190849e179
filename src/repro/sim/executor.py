"""The execution engine: configurations, steps, deliveries, snapshots.

A :class:`Simulation` owns the processes and the network and applies
events to them.  Its mutable state — process states, in-transit and income
buffers, counters — *is* the configuration in the sense of the paper; the
:meth:`Simulation.snapshot` / :meth:`Simulation.restore` pair implements
``RC(C, α)`` exploration: snapshot a configuration ``C``, run any legal
fragment ``α``, observe, restore, run a different fragment.

Applying an event builds its :mod:`~repro.sim.trace` record and returns
it (a delivery returns its message); the record is kept only in the
windows a caller has open (:meth:`Simulation.recording`), so a run
nobody records keeps none.  Every recorded event can apply itself again,
so any recorded fragment can be re-executed (possibly filtered) from a
snapshot with :meth:`Simulation.replay` — the mechanism behind the
paper's indistinguishability splices.  A delivery of a message that does
not exist raises :class:`ReplayError`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from repro.sim.messages import Message, ProcessId
from repro.sim.network import Network
from repro.sim.process import Process, StepContext
from repro.sim.snapshot import (  # noqa: F401  (re-exported: the harness contract)
    PICKLE_PROTOCOL,
    SNAPSHOT_MODES,
    Configuration,
    DeepCopyConfiguration,
    DeepCopySnapshotter,
    Snapshotter,
)
from repro.sim.trace import DeliverEvent, InvokeEvent, StepEvent, TraceEvent


E = TypeVar("E", bound=TraceEvent)


class ReplayError(RuntimeError):
    """A delivery addressed a message that is not in transit."""


class StaleMarkError(RuntimeError):
    """A mark restored after its journal was dropped or undone below it."""


@dataclass
class SimCounters:
    """Cost accounting for the ``RC(C, α)`` machinery.

    Surfaced by :meth:`repro.core.explore.ExplorationResult.describe` and
    the end-to-end benchmark so the perf trajectory of the snapshot path
    stays observable across PRs.  A journaled event's undo is a swap, so
    ``components_restored`` / ``bytes_restored`` count only restores of a
    :class:`Configuration`.
    """

    snapshots: int = 0          #: snapshot() calls (a mark() is none)
    restores: int = 0           #: restore() calls, of a snapshot or a mark
    fingerprints: int = 0       #: fingerprint() calls
    #: DFS children that were stuttering steps, deduped without being
    #: taken (each is also one ``states_deduped``)
    stutters: int = 0
    #: journaled steps replayed from the transition table, no ``on_step`` run
    steps_reused: int = 0
    #: captures and per-state fingerprint digests served from a cache
    #: (journal rows, the state table) / computed afresh (pickled, walked)
    cache_hits: int = 0
    cache_misses: int = 0
    states_interned: int = 0    #: distinct per-process states (table entries made)
    bytes_serialized: int = 0   #: bytes actually pickled for snapshots
    bytes_reused: int = 0       #: snapshot bytes served from a journal row
    bytes_restored: int = 0     #: bytes deserialized by restores
    #: per-component accounting: components captured by snapshot() and
    #: loaded by restore() (each process, and the network)
    components_serialized: int = 0
    components_restored: int = 0
    #: always 0: read by the e2e harness (benchmarks/e2e/run.py), to be
    #: dropped with their ``pool.*`` / ``sim.restore_reuse_ratio``
    #: metrics by the next ``benchmark`` PR (ROADMAP 8(a)).
    components_reused: int = 0
    publishes: int = 0
    steals: int = 0
    idle_waits: int = 0
    #: parallel runs (see repro.engine.parallel): shared claim-set
    #: traffic — claims that lost to another worker / claims that won.
    shared_seen_hits: int = 0
    shared_seen_inserts: int = 0
    #: always 0: read by the e2e harness (benchmarks/e2e/run.py), to be
    #: dropped together with its ``sim.codec_fallbacks`` metric by the
    #: next ``benchmark`` PR.
    codec_fallbacks: int = 0

    def describe(self) -> str:
        total = self.bytes_serialized + self.bytes_reused
        pct = 100.0 * self.bytes_reused / total if total else 0.0
        return (
            f"{self.snapshots} snapshots "
            f"({self.components_serialized} components pickled), "
            f"{self.restores} restores "
            f"({self.components_restored} components loaded), "
            f"{self.steps_reused} steps replayed, "
            f"{self.fingerprints} fingerprints over "
            f"{self.states_interned} distinct process states; serialization "
            f"cache {self.cache_hits} hits / {self.cache_misses} misses "
            f"({pct:.0f}% of {total} snapshot bytes reused)"
        )

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)

    def merge(self, other: "SimCounters") -> None:
        """Accumulate another ledger into this one (parallel workers)."""
        for key, value in other.__dict__.items():
            setattr(self, key, getattr(self, key) + value)


@contextmanager
def use_snapshot_mode(mode: str):
    """Force every new snapshot into one of :data:`SNAPSHOT_MODES`.

    Benchmark/test helper; flips the class-level default and restores it.
    """
    if mode not in SNAPSHOT_MODES:
        raise ValueError(f"unknown snapshot mode {mode!r}")
    old = Simulation.snapshot_mode
    Simulation.snapshot_mode = mode
    try:
        yield
    finally:
        Simulation.snapshot_mode = old


class Simulation:
    """A running instance of the system."""

    #: one of :data:`SNAPSHOT_MODES`; class attribute, overridable per
    #: instance and read at every call.  "bytes" is the
    #: component-granular path, "deepcopy" the oracle.
    snapshot_mode = "bytes"

    def __init__(self, processes: Sequence[Process]):
        self.processes: Dict[ProcessId, Process] = {}
        for p in processes:
            if p.pid in self.processes:
                raise ValueError(f"duplicate pid {p.pid}")
            self.processes[p.pid] = p
        self.network = Network(self.processes.keys())
        #: every event applied, on any branch: the next event's ``index``;
        #: unlike ``event_count`` it counts invocations and is never rewound
        self.events_applied = 0
        self._windows: Tuple[List[TraceEvent], ...] = ()
        self._msg_counter = 0
        self.event_count = 0
        self.counters = SimCounters()
        # capture / load / digest, one implementation per mode
        # (see repro.sim.snapshot); every snapshot cache lives in there
        self._snapshotters = {
            "bytes": Snapshotter(self.counters),
            "deepcopy": DeepCopySnapshotter(),
        }
        self._neighbours: Dict[ProcessId, frozenset] = {}

    def _neighbours_of(self, pid: ProcessId) -> frozenset:
        """Everyone but ``pid`` (handed to every step's context); cached,
        rebuilt only if the process set ever changes size (pids are fixed
        at construction; restores replace values, never keys)."""
        cached = self._neighbours
        if len(cached) != len(self.processes):
            everyone = frozenset(self.processes)
            cached = self._neighbours = {p: everyone - {p} for p in self.processes}
        return cached[pid]

    # -- configuration management -----------------------------------------

    def snapshot(self):
        """Capture the current configuration.

        A :class:`Configuration` (interned per-process sub-blobs plus a
        structural network capture) in
        the default ``"bytes"`` mode, a :class:`DeepCopyConfiguration`
        in ``"deepcopy"``.
        """
        self.counters.snapshots += 1
        return self._snapshotters[self.snapshot_mode].capture(
            self.processes, self.network, self._msg_counter, self.event_count
        )

    def mark(self):
        """A point :meth:`restore` undoes the live state back to: in
        ``"bytes"`` mode a position in the undo journal (and the entry
        below it), after which every event journals its exact inverse;
        in the journal-free ``"deepcopy"`` oracle, a :meth:`snapshot`."""
        if self.snapshot_mode != "bytes":
            return self.snapshot()
        journal = self.network._journal
        if journal is None:
            journal = self.network._journal = []
        below = journal[-1:]
        return (journal, len(journal), below, self._msg_counter, self.event_count)

    def drop_journal(self) -> None:
        """Stop journaling: every outstanding mark goes stale, and the live
        processes leave the interned objects they were swapped for
        (:meth:`Snapshotter.detach`), so a forward write changes only
        what it is given."""
        self.network._journal = None
        self._snapshotters["bytes"].detach(self.processes)

    def restore(self, config) -> None:
        """Return to a previously captured configuration or a mark.

        A configuration may be restored any number of times; restoring
        never aliases live state (the :class:`Configuration` ownership
        rule).  A bytes snapshot is loaded afresh
        (:meth:`Snapshotter.load`): every process unpickled from its
        sub-blob and the network rebuilt, so no live object is handed
        back; a deep-copy snapshot forks once to stay private.  Either
        drops the journal.  A :meth:`mark` is
        undone in place, or refused with :class:`StaleMarkError` once its
        journal is gone.  Anything else is refused with :class:`TypeError`
        before any live state is touched.

        An open :meth:`recording` window is not rewound: it keeps the
        undone events too, so a window that should hold one branch is
        opened after the restore that starts it.
        """
        if type(config) is tuple:  # a mark: pop the journal back to it
            journal, position, below, msg_counter, event_count = config
            live = journal is self.network._journal
            if not live or journal[position - 1 : position] != below:
                raise StaleMarkError("this mark's journal is gone or undone below it")
            while len(journal) > position:
                journal.pop()()
        else:
            if not isinstance(config, (Configuration, DeepCopyConfiguration)):
                raise TypeError(
                    f"cannot restore a {type(config).__name__}: expected a "
                    "Configuration or DeepCopyConfiguration from snapshot()"
                )
            self.drop_journal()
            self.processes, self.network = self._snapshotters[config.mode].load(config)
            msg_counter, event_count = config.msg_counter, config.event_count
        self.counters.restores += 1
        self._msg_counter = msg_counter
        self.event_count = event_count

    def fingerprint(self, *, canonical: bool = False) -> bytes:
        """A content hash of the current configuration, for revisit pruning.

        Covers every process's state plus the structural placement of
        in-transit and income messages; deliberately *excludes* the event
        and message counters, so configurations
        reached by different interleavings of the same events collide.
        Pickle is stable here because all process state is plain Python
        data and the simulation is deterministic.

        ``canonical=True`` hashes the *trace-canonical* placement instead
        (:func:`repro.sim.snapshot.placement_slots`): blind to
        global ``msg_id`` numbering and to intra-batch income order, so
        configurations that differ only by a permutation of independent
        events collide.  The exploration engine uses it for
        partial-order reduction; the default (strict) placement keeps
        the pre-engine explorer's partition.

        The hash is ``blake2b(per-process digests in sorted-pid order ‖
        placement slots)``, always a function of the live state — the
        snapshot's sub-blobs would hash a finer relation and serve only
        as cache keys (:meth:`Snapshotter.digest`).
        """
        self.counters.fingerprints += 1
        return self._snapshotters[self.snapshot_mode].digest(
            self.processes, self.network, canonical
        )

    # -- events -------------------------------------------------------------

    @contextmanager
    def recording(self) -> Iterator[List[TraceEvent]]:
        """A window: the list it yields keeps, in order, every event applied
        while it is open.  Windows nest, and an event reaches every open
        window, so an outer one also holds an inner one's events."""
        events: List[TraceEvent] = []
        self._windows += (events,)
        try:
            yield events
        finally:
            self._windows = tuple(w for w in self._windows if w is not events)

    def _record(self, event: E) -> E:
        self.events_applied += 1
        for window in self._windows:
            window.append(event)
        return event

    def step(self, pid: ProcessId) -> StepEvent:
        """Apply a computation step of ``pid``: ``on_step`` runs in place,
        or under a :meth:`mark` on a copy (:meth:`Snapshotter.apply`).
        Outside a mark no process has a cache row to go stale."""
        journal = self.network._journal
        inbox = self.network.drain_income(pid)
        self.event_count += 1
        ctx = StepContext(pid, self._neighbours_of(pid), self.event_count)
        if journal is not None:
            sends = self._snapshotters["bytes"].apply(
                self.processes, pid, journal,
                lambda p: p.on_step(ctx, inbox) or ctx._sends.items(),
                inbox, ctx,
            )
        else:
            self.processes[pid].on_step(ctx, inbox)
            sends = ctx._sends.items()
        return self._post_step(pid, inbox, sends)

    def reuse_step(self, pid: ProcessId) -> Optional[StepEvent]:
        """Under a :meth:`mark`, a step of ``pid`` seen before, replayed
        without running ``on_step`` (:meth:`Snapshotter.reuse`), or None."""
        journal = self.network._journal
        sends = None if journal is None else self._snapshotters["bytes"].reuse(
            self.processes, pid, journal, self.network.income[pid], self.event_count + 1
        )
        if sends is None:
            return None
        self.event_count += 1
        return self._post_step(pid, self.network.drain_income(pid), sends)

    def _post_step(self, pid: ProcessId, inbox: List[Message], sends: Iterable) -> StepEvent:
        sent: List[Message] = []
        for dst, payload in sends:
            msg = Message(
                msg_id=self._msg_counter,
                src=pid,
                dst=dst,
                link_seq=self.network.next_link_seq(pid, dst),
                payload=payload,
            )
            self._msg_counter += 1
            self.network.post(msg)
            sent.append(msg)
        return self._record(StepEvent(
            index=self.events_applied, pid=pid, received=tuple(inbox), sent=tuple(sent)
        ))

    def deliver(
        self, src: ProcessId, dst: ProcessId, link_seq: Optional[int] = None
    ) -> Message:
        """Apply a delivery event; default: oldest in-transit on the link."""
        if link_seq is None:
            q = self.network.in_transit.get((src, dst))
            if not q:
                raise ReplayError(f"no in-transit message on link {src}->{dst}")
            link_seq = q[0].link_seq
        try:
            msg = self.network.deliver(src, dst, link_seq)
        except KeyError as exc:
            raise ReplayError(str(exc)) from exc
        self.event_count += 1
        self._record(DeliverEvent(index=self.events_applied, message=msg))
        return msg

    def deliver_msg(self, msg: Message) -> Message:
        return self.deliver(msg.src, msg.dst, msg.link_seq)

    def invoke(self, pid: ProcessId, txn: Any) -> InvokeEvent:
        """Hand a transaction invocation to client ``pid``."""
        proc = self.processes[pid]
        on_invoke = getattr(proc, "on_invoke", None)
        if on_invoke is None:
            raise TypeError(f"{pid} does not accept invocations")
        journal = self.network._journal
        if journal is not None:
            self._snapshotters["bytes"].apply(
                self.processes, pid, journal, lambda p: p.on_invoke(txn) or ()
            )
        else:
            on_invoke(txn)
        return self._record(InvokeEvent(index=self.events_applied, pid=pid, txn=txn))

    # -- replay ---------------------------------------------------------------

    def replay(self, events: Iterable[Any], strict: bool = True) -> List[Any]:
        """Apply a (possibly filtered) event list, ``e.apply(self)`` each.

        ``events`` are a :meth:`recording` window's events (what the
        splices filter) or the engine's :class:`~repro.sim.events.Step` /
        :class:`~repro.sim.events.Deliver` (what hand-written scripts
        use).  With ``strict`` (the default) a delivery of a message that
        does not exist raises :class:`ReplayError`.  With ``strict=False``
        such deliveries are skipped and the list of skipped events
        returned — used by diagnostics, never by the proof engine.
        """
        skipped: List[Any] = []
        for event in events:
            try:
                event.apply(self)
            except ReplayError:
                if strict:
                    raise
                skipped.append(event)
        return skipped

    # -- queries ---------------------------------------------------------------

    def pids(self) -> Tuple[ProcessId, ...]:
        return tuple(self.processes)

    def quiescent(self) -> bool:
        """No in-transit or undelivered messages; no process busy."""
        return self.network.idle() and not any(
            p.wants_step() for p in self.processes.values()
        )
