"""Shared machinery for the snapshot-based protocols.

Contrarian, Wren, GentleRain, Orbe and Cure all execute read-only
transactions in two rounds:

1. the client asks a coordinator server for a snapshot timestamp;
2. the client reads every object at that snapshot.

They split into two families:

* **pre-stabilized snapshots** (Contrarian, Wren): the coordinator
  returns the *global stable frontier*, so data servers can always answer
  immediately — non-blocking — at the price of reading slightly stale
  data; the client's own fresher writes are patched in from a local
  cache (read-your-writes);
* **fresh snapshots** (GentleRain, Orbe, Cure): the snapshot includes the
  client's dependency time, which may run ahead of the stable frontier;
  a data server must then *wait* until its frontier catches up —
  blocking, the "N = no" of Table 1.

Scalar (GentleRain, Contrarian, Wren) and vector (Orbe, Cure) timestamp
variants are both provided; the protocols with multi-object write
transactions (Wren, Cure) take client-coordinated 2PC from
:mod:`repro.protocols.twophase`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

from repro.sim.messages import Message, ProcessId
from repro.sim.process import StepContext
from repro.protocols.base import (
    INITIAL_TS,
    ReadReply,
    ReadRequest,
    Timestamp,
    TxnClient,
    ValueEntry,
    Version,
    WriteReply,
    WriteRequest,
)
from repro.protocols.stability import StabilizingServer
from repro.txn.client import ActiveTxn, UnsupportedTransaction
from repro.txn.types import ObjectId, Transaction

# ---------------------------------------------------------------------------
# servers
# ---------------------------------------------------------------------------


class SnapshotServer(StabilizingServer):
    """Server answering snapshot requests and snapshot reads.

    Subclasses choose scalar/vector snapshots and blocking/non-blocking
    service by overriding :meth:`snapshot_view`, :meth:`can_serve` and
    :meth:`version_in_snapshot`.
    """

    def __init__(self, pid, objects, peers, placement):
        super().__init__(pid, objects, peers, placement)
        #: deferred snapshot reads: list of (client, ReadRequest)
        self.deferred_reads: List[Tuple[ProcessId, ReadRequest]] = []

    # -- hooks ----------------------------------------------------------------

    def snapshot_view(self) -> Any:
        """The snapshot the coordinator hands out."""
        raise NotImplementedError

    def can_serve(self, snap: Any) -> bool:
        """Whether a read at ``snap`` may be answered now."""
        raise NotImplementedError

    def version_in_snapshot(self, obj: ObjectId, snap: Any) -> Version:
        """Newest committed version inside the snapshot."""
        raise NotImplementedError

    # -- request handling ---------------------------------------------------------

    def handle_read(self, ctx: StepContext, msg: Message, req: ReadRequest) -> None:
        if req.meta.get("phase") == "snapshot":
            self.queue_send(ctx, 
                msg.src,
                ReadReply(txid=req.txid, values=(), meta={"snap": self.snapshot_view()}),
            )
            return
        snap = req.meta["at"]
        if self.can_serve(snap):
            self._serve(ctx, msg.src, req)
        else:
            self.deferred_reads.append((msg.src, req))

    def _serve(self, ctx: StepContext, client: ProcessId, req: ReadRequest) -> None:
        snap = req.meta["at"]
        entries = []
        for obj in req.keys:
            version = self.version_in_snapshot(obj, snap)
            # ship the dependency vector as metadata so readers track
            # causality transitively (identifiers only — not values)
            entries.append(version.entry(dep_vec=version.deps))
        self.queue_send(ctx, client, ReadReply(txid=req.txid, values=tuple(entries)))

    def has_deferred_work(self) -> bool:
        return bool(self.deferred_reads)

    def retry_deferred(self, ctx: StepContext) -> None:
        still: List[Tuple[ProcessId, ReadRequest]] = []
        for client, req in self.deferred_reads:
            if self.can_serve(req.meta["at"]) and not ctx.sent_to(client):
                self._serve(ctx, client, req)
            else:
                still.append((client, req))
        self.deferred_reads = still


class ScalarSnapshotServer(SnapshotServer):
    """Scalar timestamps ``(t, server)``; snapshot is an int."""

    def version_in_snapshot(self, obj: ObjectId, snap: int) -> Version:
        return self.latest(obj, pred=lambda v: v.ts == INITIAL_TS or v.ts[0] <= snap)


class VectorSnapshotServer(SnapshotServer):
    """Vector snapshots: ``{server: t}``; version origin is ``ts[1]``.

    A version is inside a vector snapshot only if its own timestamp *and
    its dependency vector* are dominated — per-component frontiers are
    not totally ordered cuts, so without the dependency check a snapshot
    could include a version while excluding its causal past (the hazard
    Orbe's dependency matrices exist to rule out; caught by our
    consistency checkers when this predicate was timestamp-only).
    """

    def version_in_snapshot(self, obj: ObjectId, snap: Mapping[str, int]) -> Version:
        def pred(v: Version) -> bool:
            if v.ts == INITIAL_TS:
                return True
            if v.ts[0] > snap.get(v.ts[1], 0):
                return False
            return all(snap.get(s, 0) >= t for s, t in v.deps)

        return self.latest(obj, pred=pred)

    def snapshot_view(self) -> Dict[str, int]:
        return self.stable_vector()

    def can_serve(self, snap: Mapping[str, int]) -> bool:
        vec = self.stable_vector()
        return all(vec.get(s, 0) >= t for s, t in snap.items())


class SimplePutMixin:
    """Single-object, immediately visible writes (no write transactions)."""

    def handle_write(self, ctx: StepContext, msg: Message, req: WriteRequest) -> None:
        assert req.kind == "write" and len(req.items) == 1
        item = req.items[0]
        self.observe_clock(int(req.meta.get("client_ts", 0)))
        ts = (self.clock, self.pid)
        self.install(
            Version(
                obj=item.obj,
                value=item.value,
                ts=ts,
                txid=req.txid,
                deps=tuple(req.meta.get("dep_vec", ())),
            )
        )
        self._dirty = True
        self.queue_send(ctx, msg.src, WriteReply(txid=req.txid, kind="ack", meta={"ts": ts}))


# ---------------------------------------------------------------------------
# clients
# ---------------------------------------------------------------------------


class SnapshotClient(TxnClient):
    """Two-round snapshot ROTs with protocol hooks.

    Subclasses set :attr:`push_dependencies` (whether the client folds its
    own dependency time into the snapshot — the blocking family) and
    :attr:`use_write_cache` (read-your-writes patching — the
    pre-stabilized family), and supply the write path: single puts
    (:class:`SimplePutClientMixin`) or 2PC
    (:class:`repro.protocols.twophase.TwoPCClientMixin`).
    """

    push_dependencies = False
    use_write_cache = False

    def __init__(self, pid, servers, placement):
        super().__init__(pid, servers, placement)
        self.dep_ts: int = 0
        self.last_snap: int = 0
        #: own writes, for read-your-writes patching
        self.write_cache: Dict[ObjectId, ValueEntry] = {}

    # -- timestamp bookkeeping (overridden by the vector variant) ---------------

    def note_ts(self, ts: Timestamp) -> None:
        self.dep_ts = max(self.dep_ts, ts[0])

    def note_deps(self, entry: ValueEntry) -> None:
        """Absorb an entry's dependency metadata (vector variant only)."""
        return None

    def client_ts_meta(self) -> int:
        return self.dep_ts

    def dep_meta(self) -> Tuple:
        """Dependency vector attached to writes (vector variant only)."""
        return ()

    # -- read path -------------------------------------------------------------

    def begin_read(self, ctx: StepContext, active: ActiveTxn) -> None:
        coordinator = self.primary(active.txn.read_set[0])
        active.state["phase"] = "snapshot"
        active.awaiting = {coordinator}
        active.round += 1
        ctx.send(
            coordinator,
            ReadRequest(txid=active.txn.txid, keys=(), meta={"phase": "snapshot"}),
        )

    def _choose_snapshot(self, server_snap: Any) -> Any:
        snap = max(int(server_snap), self.last_snap)
        if self.push_dependencies:
            snap = max(snap, self.dep_ts)
        self.last_snap = snap
        return snap

    def _start_round2(self, ctx: StepContext, active: ActiveTxn, snap: Any) -> None:
        groups = self.partition_objects(active.txn.read_set)
        active.state["phase"] = "read"
        active.state["snap"] = snap
        active.awaiting = set(groups)
        active.round += 1
        for server, keys in groups.items():
            ctx.send(
                server, ReadRequest(txid=active.txn.txid, keys=keys, meta={"at": snap})
            )

    def _absorb_entry(self, active: ActiveTxn, entry: ValueEntry) -> None:
        chosen = entry
        if self.use_write_cache:
            cached = self.write_cache.get(entry.obj)
            if cached is not None and cached.ts > entry.ts:
                chosen = cached
        active.reads[entry.obj] = chosen.value
        if chosen.ts != INITIAL_TS:
            self.note_ts(chosen.ts)
            self.note_deps(chosen)

    def handle_read_reply(
        self, ctx: StepContext, active: ActiveTxn, msg: Message, reply: ReadReply
    ) -> None:
        phase = active.state.get("phase")
        if phase == "snapshot":
            active.awaiting.discard(msg.src)
            if not active.awaiting:
                self._start_round2(ctx, active, self._choose_snapshot(reply.meta["snap"]))
        elif phase == "read":
            for entry in reply.values:
                self._absorb_entry(active, entry)
            active.awaiting.discard(msg.src)
            if not active.awaiting:
                self.finish(ctx)


class VectorSnapshotClient(SnapshotClient):
    """Snapshot client variant with vector timestamps (Orbe, Cure)."""

    def __init__(self, pid, servers, placement):
        super().__init__(pid, servers, placement)
        self.dep_vec: Dict[str, int] = {}
        self.last_snap_vec: Dict[str, int] = {}

    def note_ts(self, ts: Timestamp) -> None:
        t, origin = ts[0], ts[1]
        if t > self.dep_vec.get(origin, 0):
            self.dep_vec[origin] = t

    def note_deps(self, entry: ValueEntry) -> None:
        # transitive dependency tracking: a value's causal past becomes
        # part of the reader's causal past
        for s, t in entry.meta.get("dep_vec", ()):
            if t > self.dep_vec.get(s, 0):
                self.dep_vec[s] = t

    def client_ts_meta(self) -> int:
        return max(self.dep_vec.values(), default=0)

    def dep_meta(self) -> Tuple:
        return tuple(sorted(self.dep_vec.items()))

    def _choose_snapshot(self, server_snap: Mapping[str, int]) -> Dict[str, int]:
        snap = dict(self.last_snap_vec)
        for s, t in server_snap.items():
            snap[s] = max(snap.get(s, 0), t)
        if self.push_dependencies:
            for s, t in self.dep_vec.items():
                snap[s] = max(snap.get(s, 0), t)
        self.last_snap_vec = dict(snap)
        return snap


class SimplePutClientMixin:
    """Single-object write path for the no-WTX protocols."""

    def validate(self, txn: Transaction) -> None:
        super().validate(txn)
        if len(txn.writes) > 1:
            raise UnsupportedTransaction(
                f"{type(self).__name__[:-6]} supports only single-object writes"
            )
        if txn.read_set and txn.writes:
            raise UnsupportedTransaction("transactions are read-only or single writes")

    def begin_write(self, ctx: StepContext, active: ActiveTxn) -> None:
        obj, val = active.txn.writes[0]
        active.awaiting = {self.primary(obj)}
        ctx.send(
            self.primary(obj),
            WriteRequest(
                txid=active.txn.txid,
                kind="write",
                items=(ValueEntry(obj, val),),
                meta={
                    "client_ts": self.client_ts_meta(),
                    "dep_vec": self.dep_meta(),
                },
            ),
        )

    def handle_write_reply(self, ctx, active, msg, reply) -> None:
        ts = reply.meta["ts"]
        obj, val = active.txn.writes[0]
        self.note_ts(ts)
        if self.use_write_cache:
            self.write_cache[obj] = ValueEntry(obj, val, ts=ts, txid=active.txn.txid)
        active.awaiting.discard(msg.src)
        if not active.awaiting:
            self.finish(ctx)
