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

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.sim.messages import Message, ProcessId
from repro.sim.process import StepContext
from repro.protocols.base import (
    INITIAL_TS,
    ReadReply,
    ReadRequest,
    ServerBase,
    Timestamp,
    ValueEntry,
    Version,
    WriteReply,
    WriteRequest,
)
from repro.txn.client import ActiveTxn, ClientBase, UnsupportedTransaction
from repro.txn.types import ObjectId, Transaction


class CopsServer(ServerBase):
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
        # advance past every dependency so timestamp order refines causality
        dep_ticks = [ts[0] for _, ts in deps if ts != INITIAL_TS]
        self.lamport = max([self.lamport] + dep_ticks) + 1
        ts = (self.lamport, self.pid)
        self.install(
            Version(obj=item.obj, value=item.value, ts=ts, txid=req.txid, deps=deps)
        )
        self.queue_send(ctx, msg.src, WriteReply(txid=req.txid, kind="ack", meta={"ts": ts}))

    def handle_read(self, ctx: StepContext, msg: Message, req: ReadRequest) -> None:
        wanted: Mapping[ObjectId, Timestamp] = req.meta.get("versions", {})
        entries: List[ValueEntry] = []
        for obj in req.keys:
            if obj in wanted:
                version = self.find_version(obj, wanted[obj])
                if version is None:  # pragma: no cover - dependency always local
                    version = self.latest(obj)
            else:
                version = self.latest(obj)
            entries.append(version.entry(deps=version.deps))
        self.queue_send(ctx, msg.src, ReadReply(txid=req.txid, values=tuple(entries)))


class CopsClient(ClientBase):
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

    # -- write path ---------------------------------------------------------

    def begin(self, ctx: StepContext, active: ActiveTxn) -> None:
        txn = active.txn
        if txn.writes:
            obj, val = txn.writes[0]
            active.state["phase"] = "write"
            active.awaiting = {self.primary(obj)}
            ctx.send(
                self.primary(obj),
                WriteRequest(
                    txid=txn.txid,
                    kind="write",
                    items=(ValueEntry(obj, val),),
                    meta={"deps": tuple(self.deps.items())},
                ),
            )
        else:
            self._round1(ctx, active)

    # -- read path -----------------------------------------------------------

    def _round1(self, ctx: StepContext, active: ActiveTxn) -> None:
        groups = self.partition_objects(active.txn.read_set)
        active.state["phase"] = "round1"
        active.state["entries"] = {}
        active.awaiting = set(groups)
        active.round += 1
        for server, keys in groups.items():
            ctx.send(server, ReadRequest(txid=active.txn.txid, keys=keys))

    def _check_and_maybe_round2(self, ctx: StepContext, active: ActiveTxn) -> None:
        entries: Dict[ObjectId, ValueEntry] = active.state["entries"]
        # causal-cut check: the version returned for each object must be at
        # least as new as any dependency on that object declared by the
        # other returned versions.
        needed: Dict[ObjectId, Timestamp] = {}
        for entry in entries.values():
            for dep_obj, dep_ts in entry.meta.get("deps", ()):
                if dep_obj in entries and dep_ts > entries[dep_obj].ts:
                    if dep_obj not in needed or dep_ts > needed[dep_obj]:
                        needed[dep_obj] = dep_ts
        if not needed:
            self._complete_read(ctx, active)
            return
        groups: Dict[ProcessId, List[ObjectId]] = {}
        for obj in needed:
            groups.setdefault(self.primary(obj), []).append(obj)
        active.state["phase"] = "round2"
        active.awaiting = set(groups)
        active.round += 1
        for server, keys in groups.items():
            ctx.send(
                server,
                ReadRequest(
                    txid=active.txn.txid,
                    keys=tuple(keys),
                    meta={"versions": {k: needed[k] for k in keys}},
                ),
            )

    def _complete_read(self, ctx: StepContext, active: ActiveTxn) -> None:
        entries: Dict[ObjectId, ValueEntry] = active.state["entries"]
        for obj, entry in entries.items():
            active.reads[obj] = entry.value
            if entry.ts != INITIAL_TS:
                if obj not in self.deps or entry.ts > self.deps[obj]:
                    self.deps[obj] = entry.ts
        self.finish(ctx)

    # -- replies ----------------------------------------------------------------

    def handle_message(self, ctx: StepContext, msg: Message) -> None:
        active = self.current
        p = msg.payload
        if active is None or getattr(p, "txid", None) != active.txn.txid:
            return
        if isinstance(p, WriteReply):
            # COPS-GT needs the *full* dependency set on every stored
            # version (one-level dep checks at read time are only sound if
            # dependency lists are transitively complete), so the client
            # accumulates rather than replaces.
            obj = active.txn.writes[0][0]
            self.deps[obj] = p.meta["ts"]
            active.awaiting.discard(msg.src)
            if not active.awaiting:
                self.finish(ctx)
        elif isinstance(p, ReadReply):
            entries: Dict[ObjectId, ValueEntry] = active.state["entries"]
            for entry in p.values:
                entries[entry.obj] = entry
            active.awaiting.discard(msg.src)
            if active.awaiting:
                return
            if active.state["phase"] == "round1":
                self._check_and_maybe_round2(ctx, active)
            else:
                self._complete_read(ctx, active)
