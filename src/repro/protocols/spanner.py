"""Spanner-style — strict serializability with TrueTime; R+V+W, blocking.

Table 1 row: R = 1, V = 1, **blocking**, WTX, strict serializability.
This is the R+V+W corner of Section 3.4: one-round one-value reads and
full write transactions are kept by giving up the non-blocking property
— and by assuming tightly synchronized clocks (the
:class:`~repro.sim.clock.TrueTimeOracle`, our simulated substitution for
the GPS/atomic-clock infrastructure).

* Write and read-write transactions are coordinated server-side: the
  client submits to a coordinator which runs 2PC over the involved
  servers, acquiring exclusive locks **in sorted server order**
  (deadlock-free by resource ordering), picks
  ``commit_ts ≥ max(prepare timestamps, TT.now().latest)`` and
  *commit-waits* until ``TT.after(commit_ts)`` before installing and
  acknowledging — external consistency.
* A read-only transaction picks ``read_ts = TT.now().latest`` and sends
  a single round of reads; a server answers only once (a) its own clock
  has certainly passed ``read_ts`` and (b) no prepared-but-uncommitted
  transaction could still commit below it — otherwise the reply is
  deferred: the blocking Table 1 records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.sim.clock import TrueTimeOracle
from repro.sim.messages import Message, ProcessId
from repro.sim.process import StepContext
from repro.protocols.base import (
    INITIAL_TS,
    ReadReply,
    ReadRequest,
    ServerBase,
    ValueEntry,
    Version,
    WriteReply,
    WriteRequest,
    ServerMsg,
    TxnClient,
)
from repro.txn.client import ActiveTxn
from repro.txn.types import ObjectId, Transaction


@dataclass
class TwoPhaseState:
    """Coordinator-side state of one transaction."""

    txid: str
    client: ProcessId
    #: participant -> (write items, read objects) at that server
    shards: Dict[ProcessId, Tuple[Tuple[ValueEntry, ...], Tuple[ObjectId, ...]]]
    order: Tuple[ProcessId, ...]
    next_idx: int = 0
    prepare_ts: List[int] = field(default_factory=list)
    read_values: List[ValueEntry] = field(default_factory=list)
    commit_ts: Optional[int] = None
    committed_acks: Set[ProcessId] = field(default_factory=set)


@dataclass
class QueuedPrepare:
    txid: str
    objects: Tuple[ObjectId, ...]
    items: Tuple[ValueEntry, ...]
    reads: Tuple[ObjectId, ...]
    reply_to: ProcessId  # coordinator pid, or self for local acquire


class SpannerServer(ServerBase):
    def __init__(self, pid, objects, peers, placement, epsilon: int = 4):
        super().__init__(pid, objects, peers, placement)
        self.oracle = TrueTimeOracle(epsilon)
        self.locks: Dict[ObjectId, str] = {}
        self.lock_queue: List[QueuedPrepare] = []
        #: txid -> prepare_ts of transactions prepared (locks held) here
        self.prepared_ts: Dict[str, int] = {}
        self.prepared_items: Dict[str, Tuple[Tuple[ValueEntry, ...], Tuple[ObjectId, ...]]] = {}
        self.coordinating: Dict[str, TwoPhaseState] = {}
        self.commit_waiting: List[str] = []
        self.deferred_reads: List[Tuple[ProcessId, ReadRequest]] = []
        self.max_ts = 0
        self._wall = 0

    # -- liveness --------------------------------------------------------------

    def wants_step(self) -> bool:
        return bool(
            self.deferred_reads
            or self.commit_waiting
            or self.lock_queue
            or self.outbox
        )

    def on_step(self, ctx: StepContext, inbox: Sequence[Message]) -> None:
        self._wall = ctx.step_index
        super().on_step(ctx, inbox)

    def on_tick(self, ctx: StepContext) -> None:
        self._grant_locks(ctx)
        self._check_commit_waits(ctx)
        self._retry_reads(ctx)

    # -- locking ------------------------------------------------------------------

    def _try_acquire(self, qp: QueuedPrepare) -> bool:
        if any(obj in self.locks for obj in qp.objects):
            return False
        for obj in qp.objects:
            self.locks[obj] = qp.txid
        return True

    def _release(self, txid: str) -> None:
        for obj in [o for o, t in self.locks.items() if t == txid]:
            del self.locks[obj]

    def _new_prepare_ts(self) -> int:
        ts = max(self.oracle.now(self.pid, self._wall).latest, self.max_ts + 1)
        self.max_ts = ts
        return ts

    def _do_prepare(self, ctx: StepContext, qp: QueuedPrepare) -> None:
        """Locks are held; record the prepare and notify the coordinator."""
        ts = self._new_prepare_ts()
        self.prepared_ts[qp.txid] = ts
        self.prepared_items[qp.txid] = (qp.items, qp.reads)
        read_entries = tuple(self.latest(obj).entry() for obj in qp.reads)
        if qp.reply_to == self.pid:
            self._local_prepared(ctx, qp.txid, ts, read_entries)
        else:
            self.queue_send(ctx, 
                qp.reply_to,
                ServerMsg(
                    kind="sp_prepared",
                    data={"txid": qp.txid, "ts": ts},
                    values=read_entries,
                ),
            )

    def _grant_locks(self, ctx: StepContext) -> None:
        remaining: List[QueuedPrepare] = []
        for qp in self.lock_queue:
            if self._try_acquire(qp):
                self._do_prepare(ctx, qp)
            else:
                remaining.append(qp)
        self.lock_queue = remaining

    # -- coordinator role ------------------------------------------------------------

    def handle_write(self, ctx: StepContext, msg: Message, req: WriteRequest) -> None:
        assert req.kind == "submit"
        shards: Dict[ProcessId, Tuple[List[ValueEntry], List[ObjectId]]] = {}
        for item in req.items:
            s = self.placement[item.obj][0]
            shards.setdefault(s, ([], []))[0].append(item)
        for obj in req.meta.get("reads", ()):
            s = self.placement[obj][0]
            shards.setdefault(s, ([], []))[1].append(obj)
        state = TwoPhaseState(
            txid=req.txid,
            client=msg.src,
            shards={
                s: (tuple(w), tuple(r)) for s, (w, r) in shards.items()
            },
            order=tuple(sorted(shards)),
        )
        self.coordinating[req.txid] = state
        self._advance_prepares(ctx, state)

    def _advance_prepares(self, ctx: StepContext, state: TwoPhaseState) -> None:
        """Send the next sequential prepare (deadlock-free lock ordering)."""
        if state.next_idx >= len(state.order):
            self._all_prepared(ctx, state)
            return
        target = state.order[state.next_idx]
        items, reads = state.shards[target]
        qp = QueuedPrepare(
            txid=state.txid,
            objects=tuple(sorted({e.obj for e in items} | set(reads))),
            items=items,
            reads=reads,
            reply_to=self.pid if target == self.pid else self.pid,
        )
        if target == self.pid:
            if self._try_acquire(qp):
                self._do_prepare(ctx, qp)
            else:
                self.lock_queue.append(qp)
        else:
            self.queue_send(ctx, 
                target,
                ServerMsg(
                    kind="sp_prepare",
                    data={
                        "txid": state.txid,
                        "objects": qp.objects,
                        "reads": reads,
                    },
                    values=items,
                ),
            )

    def _local_prepared(
        self, ctx: StepContext, txid: str, ts: int, read_entries: Tuple[ValueEntry, ...]
    ) -> None:
        state = self.coordinating[txid]
        state.prepare_ts.append(ts)
        state.read_values.extend(read_entries)
        state.next_idx += 1
        self._advance_prepares(ctx, state)

    def _all_prepared(self, ctx: StepContext, state: TwoPhaseState) -> None:
        now = self.oracle.now(self.pid, self._wall).latest
        state.commit_ts = max(state.prepare_ts + [now, self.max_ts + 1])
        self.max_ts = max(self.max_ts, state.commit_ts)
        self.commit_waiting.append(state.txid)

    def _check_commit_waits(self, ctx: StepContext) -> None:
        still: List[str] = []
        for txid in self.commit_waiting:
            state = self.coordinating[txid]
            assert state.commit_ts is not None
            if self.oracle.after(self.pid, state.commit_ts, self._wall):
                self._finalize_commit(ctx, state)
            else:
                still.append(txid)
        self.commit_waiting = still

    def _finalize_commit(self, ctx: StepContext, state: TwoPhaseState) -> None:
        for target in state.order:
            if target == self.pid:
                self._apply_commit(state.txid, state.commit_ts)
            else:
                self.queue_send(ctx, 
                    target,
                    ServerMsg(
                        kind="sp_commit",
                        data={"txid": state.txid, "ts": state.commit_ts},
                    ),
                )
        if state.read_values:
            self.queue_send(ctx, 
                state.client,
                ReadReply(
                    txid=state.txid,
                    values=tuple(state.read_values),
                    meta={"commit_ts": state.commit_ts},
                ),
            )
        else:
            self.queue_send(ctx, 
                state.client,
                WriteReply(
                    txid=state.txid,
                    kind="committed",
                    meta={"commit_ts": state.commit_ts},
                ),
            )
        del self.coordinating[state.txid]

    def _apply_commit(self, txid: str, commit_ts: int) -> None:
        items, _reads = self.prepared_items.pop(txid, ((), ()))
        del self.prepared_ts[txid]
        self.max_ts = max(self.max_ts, commit_ts)
        for item in items:
            self.install(
                Version(
                    obj=item.obj,
                    value=item.value,
                    ts=(commit_ts, self.pid, txid),
                    txid=txid,
                )
            )
        self._release(txid)

    # -- participant role ---------------------------------------------------------------

    def handle_server(self, ctx: StepContext, msg: Message, sm: ServerMsg) -> None:
        if sm.kind == "sp_prepare":
            qp = QueuedPrepare(
                txid=sm.data["txid"],
                objects=tuple(sm.data["objects"]),
                items=tuple(sm.values),
                reads=tuple(sm.data["reads"]),
                reply_to=msg.src,
            )
            if self._try_acquire(qp):
                self._do_prepare(ctx, qp)
            else:
                self.lock_queue.append(qp)
        elif sm.kind == "sp_prepared":
            self._local_prepared(
                ctx, sm.data["txid"], sm.data["ts"], tuple(sm.values)
            )
        elif sm.kind == "sp_commit":
            self._apply_commit(sm.data["txid"], sm.data["ts"])
        else:  # pragma: no cover - defensive
            raise NotImplementedError(f"{self.pid}: server message {sm.kind}")

    # -- snapshot reads ------------------------------------------------------------------

    def _safe_to_read(self, read_ts: int) -> bool:
        if not self.oracle.after(self.pid, read_ts, self._wall):
            return False
        return not any(ts <= read_ts for ts in self.prepared_ts.values())

    def handle_read(self, ctx: StepContext, msg: Message, req: ReadRequest) -> None:
        if self._safe_to_read(req.meta["at"]):
            self._serve_read(ctx, msg.src, req)
        else:
            self.deferred_reads.append((msg.src, req))

    def _serve_read(self, ctx: StepContext, client: ProcessId, req: ReadRequest) -> None:
        read_ts = req.meta["at"]
        entries = tuple(
            self.latest(
                obj, pred=lambda v: v.ts == INITIAL_TS or v.ts[0] <= read_ts
            ).entry()
            for obj in req.keys
        )
        self.queue_send(ctx, client, ReadReply(txid=req.txid, values=entries))

    def _retry_reads(self, ctx: StepContext) -> None:
        still: List[Tuple[ProcessId, ReadRequest]] = []
        for client, req in self.deferred_reads:
            if self._safe_to_read(req.meta["at"]) and not ctx.sent_to(client):
                self._serve_read(ctx, client, req)
            else:
                still.append((client, req))
        self.deferred_reads = still


class SpannerClient(TxnClient):
    def __init__(self, pid, servers, placement, epsilon: int = 4):
        super().__init__(pid, servers, placement)
        self.oracle = TrueTimeOracle(epsilon)

    def begin_read(self, ctx: StepContext, active: ActiveTxn) -> None:
        txn = active.txn
        read_ts = self.oracle.now(self.pid, ctx.step_index).latest
        groups = self.partition_objects(txn.read_set)
        active.state["phase"] = "read"
        active.awaiting = set(groups)
        active.round += 1
        for server, keys in groups.items():
            ctx.send(
                server,
                ReadRequest(txid=txn.txid, keys=keys, meta={"at": read_ts}),
            )

    def begin_write(self, ctx: StepContext, active: ActiveTxn) -> None:
        txn = active.txn
        coordinator = self.primary((txn.write_set or txn.read_set)[0])
        active.state["phase"] = "2pc"
        active.awaiting = {coordinator}
        ctx.send(
            coordinator,
            WriteRequest(
                txid=txn.txid,
                kind="submit",
                items=tuple(ValueEntry(o, v) for o, v in txn.writes),
                meta={"reads": txn.read_set},
            ),
        )

    def handle_read_reply(
        self, ctx: StepContext, active: ActiveTxn, msg: Message, reply: ReadReply
    ) -> None:
        for entry in reply.values:
            active.reads[entry.obj] = entry.value
        self.count_reply(ctx, active, msg)

    def handle_write_reply(
        self, ctx: StepContext, active: ActiveTxn, msg: Message, reply: WriteReply
    ) -> None:
        self.count_reply(ctx, active, msg)
