"""COPS-RW — the paper's N+R+W sketch (Section 3.4).

One-round, non-blocking read-only transactions **and** multi-object
write transactions, causally consistent — possible only because the
one-value property is abandoned: every stored version carries, and every
read reply ships, the values of the sibling objects written in the same
transaction plus the values of everything the transaction causally
depends on.  The client then computes, per object, the newest value
among the direct reply, the attached values, and its own causal store.

The paper: "This protocol is not efficient, as it requires to store and
communicate a prohibitively big amount of data."  The metadata benchmark
quantifies exactly that growth.
"""

from __future__ import annotations

from typing import Dict, List

from repro.sim.messages import Message, ProcessId
from repro.sim.process import StepContext
from repro.protocols.base import (
    INITIAL_TS,
    ReadReply,
    ReadRequest,
    ServerBase,
    Timestamp,
    TxnClient,
    ValueEntry,
    Version,
    WriteReply,
    WriteRequest,
)
from repro.txn.client import ActiveTxn, UnsupportedTransaction
from repro.txn.types import ObjectId, Transaction


class CopsRwServer(ServerBase):
    def __init__(self, pid, objects, peers, placement):
        super().__init__(pid, objects, peers, placement)
        self.lamport = 0

    def handle_write(self, ctx: StepContext, msg: Message, req: WriteRequest) -> None:
        assert req.kind == "write"
        ts = req.meta["ts"]  # client-assigned: same timestamp at every server
        self.lamport = max(self.lamport, ts[0])
        attached = tuple(req.aux_items)
        for item in req.items:
            self.install(
                Version(
                    obj=item.obj,
                    value=item.value,
                    ts=ts,
                    txid=req.txid,
                    meta={"attached": attached},
                )
            )
        self.queue_send(ctx, msg.src, WriteReply(txid=req.txid, kind="ack", meta={"ts": ts}))

    def handle_read(self, ctx: StepContext, msg: Message, req: ReadRequest) -> None:
        entries: List[ValueEntry] = []
        aux: List[ValueEntry] = []
        for obj in req.keys:
            version = self.latest(obj)
            # the attachments travel ONLY through the declared aux_values
            # field (the one-value monitor counts them there); the direct
            # entry must not smuggle them through its metadata
            entries.append(
                ValueEntry(
                    obj=version.obj,
                    value=version.value,
                    ts=version.ts,
                    txid=version.txid,
                )
            )
            aux.extend(version.meta.get("attached", ()))
        self.queue_send(ctx, 
            msg.src,
            ReadReply(txid=req.txid, values=tuple(entries), aux_values=tuple(aux)),
        )


class CopsRwClient(TxnClient):
    def __init__(self, pid, servers, placement):
        super().__init__(pid, servers, placement)
        self.lamport = 0
        #: the client's causal past, values included (the "prohibitive" part)
        self.causal_store: Dict[ObjectId, ValueEntry] = {}

    def validate(self, txn: Transaction) -> None:
        super().validate(txn)
        if txn.read_set and txn.writes:
            raise UnsupportedTransaction(
                "COPS-RW transactions are read-only or write-only"
            )

    def _note(self, entry: ValueEntry) -> None:
        if entry.ts == INITIAL_TS:
            return
        current = self.causal_store.get(entry.obj)
        if current is None or entry.ts > current.ts:
            self.causal_store[entry.obj] = entry
        self.lamport = max(self.lamport, entry.ts[0])

    def begin_read(self, ctx: StepContext, active: ActiveTxn) -> None:
        groups = self.partition_objects(active.txn.read_set)
        active.awaiting = set(groups)
        active.round += 1
        for server, keys in groups.items():
            ctx.send(server, ReadRequest(txid=active.txn.txid, keys=keys))

    def begin_write(self, ctx: StepContext, active: ActiveTxn) -> None:
        # write-only: one client-stamped write per server, carrying the
        # sibling values and the full causal store
        txn = active.txn
        self.lamport += 1
        ts: Timestamp = (self.lamport, self.pid, txn.txid)
        all_items = tuple(
            ValueEntry(obj, val, ts=ts, txid=txn.txid) for obj, val in txn.writes
        )
        deps = tuple(self.causal_store.values())
        groups: Dict[ProcessId, List[ValueEntry]] = {}
        for item in all_items:
            groups.setdefault(self.primary(item.obj), []).append(item)
        active.state["ts"] = ts
        active.state["items"] = all_items
        active.awaiting = set(groups)
        for server, items in groups.items():
            siblings = tuple(i for i in all_items if i not in items)
            ctx.send(
                server,
                WriteRequest(
                    txid=txn.txid,
                    kind="write",
                    items=tuple(items),
                    aux_items=siblings + deps,
                    meta={"ts": ts},
                ),
            )

    def handle_write_reply(
        self, ctx: StepContext, active: ActiveTxn, msg: Message, reply: WriteReply
    ) -> None:
        active.awaiting.discard(msg.src)
        if not active.awaiting:
            for item in active.state["items"]:
                self._note(item)
            self.finish(ctx)

    def handle_read_reply(
        self, ctx: StepContext, active: ActiveTxn, msg: Message, reply: ReadReply
    ) -> None:
        candidates = active.state.setdefault("candidates", {})
        for entry in reply.values + reply.aux_values:
            candidates.setdefault(entry.obj, []).append(entry)
            self._note(entry)
        active.awaiting.discard(msg.src)
        if not active.awaiting:
            for obj in active.txn.read_set:
                pool = list(candidates.get(obj, []))
                cached = self.causal_store.get(obj)
                if cached is not None:
                    pool.append(cached)
                best = max(pool, key=lambda e: e.ts)
                active.reads[obj] = best.value
            self.finish(ctx)
