"""RAMP-Fast — read atomicity with non-blocking reads and write transactions.

Table 1 row: R ≤ 2, V ≤ 2, non-blocking, WTX, **read atomicity** (weaker
than causal consistency: no cross-transaction causality, only no
fractured reads).

Write transactions are two-phase: PREPARE ships each server its items
plus the transaction's sibling list; COMMIT installs them at the
transaction timestamp.  A read-only transaction optimistically reads the
latest committed version of each object; the attached sibling metadata
lets the client detect a fractured read (it saw transaction T's write to
X but an older version of sibling Y) and repair it with a second round
that fetches Y's version by exact timestamp — served from the prepared
set if the commit message has not arrived yet (RAMP's signature trick,
which keeps reads non-blocking).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

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


class RampServer(ServerBase):
    def __init__(self, pid, objects, peers, placement):
        super().__init__(pid, objects, peers, placement)
        self.lamport = 0
        #: txid -> (items, siblings)
        self.prepared: Dict[str, Tuple[Tuple[ValueEntry, ...], tuple]] = {}

    def handle_write(self, ctx: StepContext, msg: Message, req: WriteRequest) -> None:
        if req.kind == "prepare":
            self.lamport = max(self.lamport, int(req.meta.get("client_ts", 0))) + 1
            self.prepared[req.txid] = (req.items, tuple(req.meta.get("siblings", ())))
            self.queue_send(ctx, 
                msg.src,
                WriteReply(txid=req.txid, kind="prepared", meta={"ts": self.lamport}),
            )
        elif req.kind == "commit":
            commit_t = int(req.meta["commit_ts"])
            self._install_txn(req.txid, commit_t)
            self.queue_send(ctx, 
                msg.src,
                WriteReply(
                    txid=req.txid, kind="committed", meta={"commit_ts": commit_t}
                ),
            )
        else:  # pragma: no cover - defensive
            raise NotImplementedError(f"{self.pid}: write kind {req.kind}")

    def _install_txn(self, txid: str, commit_t: int) -> None:
        if txid not in self.prepared:
            return
        items, siblings = self.prepared.pop(txid)
        self.lamport = max(self.lamport, commit_t)
        for item in items:
            self.install(
                Version(
                    obj=item.obj,
                    value=item.value,
                    ts=(commit_t, self.pid, txid),
                    txid=txid,
                    meta={"siblings": siblings},
                )
            )

    def handle_read(self, ctx: StepContext, msg: Message, req: ReadRequest) -> None:
        wanted: Mapping[ObjectId, Timestamp] = req.meta.get("versions", {})
        entries: List[ValueEntry] = []
        for obj in req.keys:
            if obj in wanted:
                ts = wanted[obj]
                version = self.find_version(obj, ts)
                if version is None:
                    # serve straight from the prepared set: the request's
                    # timestamp proves the transaction committed at ts[0]
                    self._install_txn(ts[2], ts[0])
                    version = self.find_version(obj, ts)
                if version is None:  # pragma: no cover - protocol invariant
                    version = self.latest(obj)
            else:
                version = self.latest(obj)
            entries.append(
                version.entry(siblings=version.meta.get("siblings", ()))
            )
        self.queue_send(ctx, msg.src, ReadReply(txid=req.txid, values=tuple(entries)))


class RampClient(ClientBase):
    def __init__(self, pid, servers, placement):
        super().__init__(pid, servers, placement)
        self.lamport = 0

    def validate(self, txn: Transaction) -> None:
        super().validate(txn)
        if txn.read_set and txn.writes:
            raise UnsupportedTransaction(
                "RAMP transactions are read-only or write-only"
            )

    def begin(self, ctx: StepContext, active: ActiveTxn) -> None:
        if active.txn.is_read_only:
            self._round1(ctx, active)
            return
        txn = active.txn
        groups: Dict[ProcessId, List[ValueEntry]] = {}
        for obj, val in txn.writes:
            groups.setdefault(self.primary(obj), []).append(ValueEntry(obj, val))
        siblings = tuple((obj, self.primary(obj)) for obj in txn.write_set)
        active.state["phase"] = "prepare"
        active.state["groups"] = {s: tuple(i) for s, i in groups.items()}
        active.state["prepare_ts"] = []
        active.awaiting = set(groups)
        for server, items in groups.items():
            ctx.send(
                server,
                WriteRequest(
                    txid=txn.txid,
                    kind="prepare",
                    items=tuple(items),
                    meta={"client_ts": self.lamport, "siblings": siblings},
                ),
            )

    def _round1(self, ctx: StepContext, active: ActiveTxn) -> None:
        groups = self.partition_objects(active.txn.read_set)
        active.state["phase"] = "round1"
        active.state["entries"] = {}
        active.awaiting = set(groups)
        active.round += 1
        for server, keys in groups.items():
            ctx.send(server, ReadRequest(txid=active.txn.txid, keys=keys))

    def _repair(self, ctx: StepContext, active: ActiveTxn) -> None:
        """Detect fractured reads; fetch the missing sibling versions."""
        entries: Dict[ObjectId, ValueEntry] = active.state["entries"]
        needed: Dict[ObjectId, Timestamp] = {}
        for entry in entries.values():
            if entry.ts == INITIAL_TS:
                continue
            for sib_obj, sib_server in entry.meta.get("siblings", ()):
                if sib_obj not in entries or sib_obj == entry.obj:
                    continue
                sib_ts = (entry.ts[0], sib_server, entry.ts[2])
                if entries[sib_obj].ts < sib_ts:
                    if sib_obj not in needed or sib_ts > needed[sib_obj]:
                        needed[sib_obj] = sib_ts
        if not needed:
            self._complete(ctx, active)
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

    def _complete(self, ctx: StepContext, active: ActiveTxn) -> None:
        entries: Dict[ObjectId, ValueEntry] = active.state["entries"]
        for obj, entry in entries.items():
            active.reads[obj] = entry.value
            if entry.ts != INITIAL_TS:
                self.lamport = max(self.lamport, entry.ts[0])
        self.finish(ctx)

    def handle_message(self, ctx: StepContext, msg: Message) -> None:
        active = self.current
        p = msg.payload
        if active is None or getattr(p, "txid", None) != active.txn.txid:
            return
        if isinstance(p, WriteReply):
            if p.kind == "prepared":
                active.state["prepare_ts"].append(int(p.meta["ts"]))
                active.awaiting.discard(msg.src)
                if not active.awaiting and active.state["phase"] == "prepare":
                    commit_t = max(active.state["prepare_ts"])
                    active.state["phase"] = "commit"
                    active.awaiting = set(active.state["groups"])
                    for server in active.state["groups"]:
                        ctx.send(
                            server,
                            WriteRequest(
                                txid=active.txn.txid,
                                kind="commit",
                                meta={"commit_ts": commit_t},
                            ),
                        )
            elif p.kind == "committed":
                self.lamport = max(self.lamport, int(p.meta["commit_ts"]))
                active.awaiting.discard(msg.src)
                if not active.awaiting and active.state["phase"] == "commit":
                    self.finish(ctx)
        elif isinstance(p, ReadReply):
            entries: Dict[ObjectId, ValueEntry] = active.state["entries"]
            for entry in p.values:
                entries[entry.obj] = entry
            active.awaiting.discard(msg.src)
            if active.awaiting:
                return
            if active.state["phase"] == "round1":
                self._repair(ctx, active)
            else:
                self._complete(ctx, active)
