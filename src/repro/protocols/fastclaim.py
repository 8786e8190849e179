"""FastClaim — the strawman that "achieves" all four properties.

FastClaim supports multi-object write transactions **and** serves
read-only transactions that are one-round, non-blocking and one-value.
By Theorem 1 no such protocol can be causally consistent, and indeed
FastClaim is not: it applies each write at each server independently,
the instant the write message arrives, with no cross-server coordination
of visibility.  A read-only transaction racing a multi-object write can
observe the write at one server and miss it (or, worse, miss one of its
causal dependencies) at another.

This is the protocol the impossibility engine (:mod:`repro.core`) is
pointed at to *materialize* the paper's contradiction: the spliced
execution γ makes a fast read return a mix of old and new values,
violating Lemma 1.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

from repro.sim.messages import Message, ProcessId
from repro.sim.process import StepContext
from repro.protocols.base import (
    ReadReply,
    ReadRequest,
    ServerBase,
    ValueEntry,
    Version,
    WriteReply,
    WriteRequest,
)
from repro.txn.client import ActiveTxn, ClientBase
from repro.txn.types import ObjectId


class FastClaimServer(ServerBase):
    """Applies writes immediately and answers reads immediately."""

    def __init__(self, pid, objects, peers, placement):
        super().__init__(pid, objects, peers, placement)
        self.lamport = 0

    def handle_read(self, ctx: StepContext, msg: Message, req: ReadRequest) -> None:
        entries = tuple(self.latest(obj).entry() for obj in req.keys)
        self.queue_send(ctx, msg.src, ReadReply(txid=req.txid, values=entries))

    def handle_write(self, ctx: StepContext, msg: Message, req: WriteRequest) -> None:
        self.lamport = max(self.lamport, int(req.meta.get("ts", 0))) + 1
        for item in req.items:
            self.install(
                Version(
                    obj=item.obj,
                    value=item.value,
                    ts=(self.lamport, self.pid),
                    txid=req.txid,
                )
            )
        self.queue_send(ctx, 
            msg.src,
            WriteReply(txid=req.txid, kind="ack", meta={"ts": self.lamport}),
        )


class FastClaimClient(ClientBase):
    """One round for reads; one independent write message per server."""

    def __init__(self, pid, servers, placement):
        super().__init__(pid, servers, placement)
        self.lamport = 0

    def begin(self, ctx: StepContext, active: ActiveTxn) -> None:
        if active.txn.read_set:
            self._send_reads(ctx, active)
        else:
            self._send_writes(ctx, active)

    def _send_reads(self, ctx: StepContext, active: ActiveTxn) -> None:
        groups = self.partition_objects(active.txn.read_set)
        active.state["phase"] = "read"
        active.awaiting = set(groups)
        active.round += 1
        for server, keys in groups.items():
            ctx.send(server, ReadRequest(txid=active.txn.txid, keys=keys))

    def _send_writes(self, ctx: StepContext, active: ActiveTxn) -> None:
        # write to every replica of each object (partial replication:
        # Theorem 2's model); reads go to the primary only, per the
        # general one-value property (Definition 5).
        groups: Dict[ProcessId, list] = {}
        for obj, val in active.txn.writes:
            for server in self.replicas(obj):
                groups.setdefault(server, []).append(ValueEntry(obj, val))
        active.state["phase"] = "write"
        active.awaiting = set(groups)
        for server, items in groups.items():
            ctx.send(
                server,
                WriteRequest(
                    txid=active.txn.txid,
                    kind="write",
                    items=tuple(items),
                    meta={"ts": self.lamport},
                ),
            )

    def handle_message(self, ctx: StepContext, msg: Message) -> None:
        active = self.current
        p = msg.payload
        if active is None or getattr(p, "txid", None) != active.txn.txid:
            return  # stale reply from an abandoned round
        if isinstance(p, ReadReply):
            for entry in p.values:
                active.reads[entry.obj] = entry.value
            active.awaiting.discard(msg.src)
            if not active.awaiting and active.state["phase"] == "read":
                if active.txn.writes:
                    self._send_writes(ctx, active)
                else:
                    self.finish(ctx)
        elif isinstance(p, WriteReply):
            self.lamport = max(self.lamport, int(p.meta.get("ts", 0)))
            active.awaiting.discard(msg.src)
            if not active.awaiting and active.state["phase"] == "write":
                self.finish(ctx)
