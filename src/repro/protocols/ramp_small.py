"""RAMP-Small — the constant-metadata member of the RAMP family.

RAMP-Fast (see :mod:`repro.protocols.ramp`) reads in one round in the
common case by shipping sibling metadata with every value.  RAMP-Small
makes the opposite trade: **always two rounds, constant metadata**:

1. round 1 reads the latest committed version of each object (value +
   transaction timestamp, no sibling lists);
2. the client forms the set of observed transaction timestamps and sends
   it to every server; each server answers, per object, with the newest
   version written by a transaction *in the set* — installing it from
   the prepared state on demand if the commit message is still in flight
   (the RAMP trick that keeps reads non-blocking).

Every transaction observed at one shard in round 1 is therefore fetched
whole in round 2 (sibling shards share the transaction timestamp), which
yields read atomicity with at most two values per object on the wire and
a timestamp set as the only metadata.  The write path is RAMP-Fast's.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.sim.messages import Message
from repro.sim.process import StepContext
from repro.protocols.base import (
    INITIAL_TS,
    ReadReply,
    ReadRequest,
    ValueEntry,
)
from repro.protocols.ramp import RampClient, RampServer
from repro.txn.client import ActiveTxn


class RampSmallServer(RampServer):
    """RAMP-Fast's server plus the RAMP-Small second-round resolution."""

    def handle_read(self, ctx: StepContext, msg: Message, req: ReadRequest) -> None:
        if req.meta.get("small_phase") != "fetch":
            # round 1: latest committed value, timestamp only (the parent
            # would attach sibling metadata; RAMP-Small ships none)
            entries = tuple(self.latest(obj).entry() for obj in req.keys)
            self.queue_send(ctx, msg.src, ReadReply(txid=req.txid, values=entries))
            return
        # round 2: resolve against the observed-transaction set
        tx_set: Dict[str, int] = dict(req.meta.get("tx_set", ()))
        entries: List[ValueEntry] = []
        for obj in req.keys:
            entries.append(self._resolve_small(obj, tx_set).entry())
        self.queue_send(ctx, msg.src, ReadReply(txid=req.txid, values=tuple(entries)))

    def _resolve_small(self, obj: str, tx_set: Dict[str, int]):
        # install any set member still prepared here that wrote this
        # object: a timestamp in the set proves its commit
        for txid, commit_t in list(tx_set.items()):
            if txid in self.prepared and any(
                item.obj == obj for item in self.prepared[txid][0]
            ):
                self.install_prepared(txid, commit_t)
        for v in reversed(self.store[obj]):
            if v.txid in tx_set:
                return v
        # no set member wrote this object: answer with the initial
        # version (NOT the latest committed — a transaction that slipped
        # in between the rounds is outside the snapshot and returning it
        # here could fracture its sibling reads)
        return self.store[obj][0]


class RampSmallClient(RampClient):
    """Two fixed rounds: optimistic read, then set-resolved fetch."""

    def begin_read(self, ctx: StepContext, active: ActiveTxn) -> None:
        groups = self.partition_objects(active.txn.read_set)
        active.state["phase"] = "small1"
        active.state["entries"] = {}
        active.awaiting = set(groups)
        active.round += 1
        for server, keys in groups.items():
            ctx.send(
                server,
                ReadRequest(
                    txid=active.txn.txid, keys=keys, meta={"small_phase": "first"}
                ),
            )

    def _start_fetch(self, ctx: StepContext, active: ActiveTxn) -> None:
        entries: Dict[str, ValueEntry] = active.state["entries"]
        tx_set: Tuple[Tuple[str, int], ...] = tuple(
            sorted(
                {
                    (e.ts[2], e.ts[0])
                    for e in entries.values()
                    if e.ts != INITIAL_TS
                }
            )
        )
        groups = self.partition_objects(active.txn.read_set)
        active.state["phase"] = "small2"
        active.awaiting = set(groups)
        active.round += 1
        for server, keys in groups.items():
            ctx.send(
                server,
                ReadRequest(
                    txid=active.txn.txid,
                    keys=keys,
                    meta={"small_phase": "fetch", "tx_set": tx_set},
                ),
            )

    def handle_read_reply(
        self, ctx: StepContext, active: ActiveTxn, msg: Message, reply: ReadReply
    ) -> None:
        if active.state["phase"] == "small1":
            for entry in reply.values:
                active.state["entries"][entry.obj] = entry
            active.awaiting.discard(msg.src)
            if not active.awaiting:
                self._start_fetch(ctx, active)
            return
        for entry in reply.values:
            active.reads[entry.obj] = entry.value
            if entry.ts != INITIAL_TS:
                self.note_read(entry.obj, entry.ts)
        self.count_reply(ctx, active, msg)
