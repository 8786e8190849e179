"""COPS — causal consistency with dependency tracking (Lloyd et al., SOSP'11).

Table 1 row: R ≤ 2, V ≤ 2, non-blocking, **no multi-object write
transactions**, causal consistency.

Writes are single-object ``put_after`` operations carrying the client's
nearest dependencies; servers store every version with its dependency
list.  Read-only transactions use the COPS-GT two-round protocol: a
first optimistic round fetches the newest version of each object, the
client checks the returned versions against each other's dependency
lists, and — if some returned version is older than a dependency of
another — a second round fetches the precise missing versions.  Both
rounds are answered immediately (non-blocking), and each object may be
communicated at most twice (V ≤ 2).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.sim.messages import Message
from repro.sim.process import StepContext
from repro.protocols.base import (
    INITIAL_TS,
    Timestamp,
    TxnClient,
    ValueEntry,
    Version,
    WriteReply,
    WriteRequest,
)
from repro.protocols.twophase import ExactReadClient, ExactReadServer
from repro.txn.client import ActiveTxn, UnsupportedTransaction
from repro.txn.types import ObjectId, Transaction


def put_clock(lamport: int, deps: Sequence[Tuple[ObjectId, Timestamp]]) -> int:
    """A COPS-family server's Lamport clock after a put: past its own
    clock and past every dependency's tick, so timestamp order refines
    causality."""
    return max([lamport] + [ts[0] for _, ts in deps if ts != INITIAL_TS]) + 1


class CopsServer(ExactReadServer):
    """Versioned store; assigns ``(lamport, pid)`` timestamps to puts."""

    def __init__(self, pid, objects, peers, placement):
        super().__init__(pid, objects, peers, placement)
        self.lamport = 0

    def handle_write(self, ctx: StepContext, msg: Message, req: WriteRequest) -> None:
        assert req.kind == "write" and len(req.items) == 1
        item = req.items[0]
        deps: Tuple[Tuple[ObjectId, Timestamp], ...] = tuple(
            req.meta.get("deps", ())
        )
        self.lamport = put_clock(self.lamport, deps)
        ts = (self.lamport, self.pid)
        self.install(
            Version(obj=item.obj, value=item.value, ts=ts, txid=req.txid, deps=deps)
        )
        self.queue_send(ctx, msg.src, WriteReply(txid=req.txid, kind="ack", meta={"ts": ts}))


class CopsPutClient(TxnClient):
    """The COPS put: one write, carrying the client's dependencies."""

    def begin_write(self, ctx: StepContext, active: ActiveTxn) -> None:
        obj, val = active.txn.writes[0]
        active.awaiting = {self.primary(obj)}
        ctx.send(
            self.primary(obj),
            WriteRequest(
                txid=active.txn.txid,
                kind="write",
                items=(ValueEntry(obj, val),),
                meta={"deps": tuple(self.deps.items())},
            ),
        )

    def handle_write_reply(
        self, ctx: StepContext, active: ActiveTxn, msg: Message, reply: WriteReply
    ) -> None:
        self.note_put(active.txn.writes[0][0], reply.meta["ts"])
        self.count_reply(ctx, active, msg)

    def note_put(self, obj: ObjectId, ts: Timestamp) -> None:
        # COPS-GT needs the *full* dependency set on every stored version
        # (one-level dep checks at read time are only sound if dependency
        # lists are transitively complete), so the client accumulates
        # rather than replaces.
        self.deps[obj] = ts


class CopsClient(CopsPutClient, ExactReadClient):
    """Nearest-dependency tracking plus the two-round get_trans."""

    def __init__(self, pid, servers, placement):
        super().__init__(pid, servers, placement)
        #: nearest dependencies: newest known version per object
        self.deps: Dict[ObjectId, Timestamp] = {}

    def validate(self, txn: Transaction) -> None:
        super().validate(txn)
        if len(txn.writes) > 1:
            raise UnsupportedTransaction(
                "COPS supports only single-object writes (no multi-object "
                "write transactions)"
            )
        if txn.read_set and txn.writes:
            raise UnsupportedTransaction(
                "COPS transactions are read-only or single writes"
            )

    def begin_write(self, ctx: StepContext, active: ActiveTxn) -> None:
        active.state["phase"] = "write"
        super().begin_write(ctx, active)
