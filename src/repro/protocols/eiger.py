"""Eiger-style — causal consistency with write-only transactions and
non-blocking multi-round reads.

Table 1 row (Eiger): R ≤ 3, V ≤ 2, non-blocking, WTX, causal consistency.

Write-only transactions use two-phase commit with *commit-time sibling
dependencies*: at commit, each server stores its items with a dependency
list that names both the writing client's causal past and the sibling
items of the same transaction (whose commit timestamps are computable
from the commit message).  Read-only transactions then run the COPS-GT
style check: an optimistic first round, a dependency cut check at the
client, and a second round that fetches exact missing versions.  Because
the sibling items are dependencies, the check also repairs fractured
reads of a write transaction, which is how atomic visibility is kept
without blocking.

A second-round fetch may name a version that is still *prepared* at the
target server (its commit message is in flight); the request itself
proves the commit timestamp, so the server installs the pending items
immediately and answers — non-blocking.  Our variant completes in ≤ 2
rounds (the published Eiger needs up to 3 because of its pending-
transaction indirection); the property class — more than one round,
non-blocking — is the same, and EXPERIMENTS.md records the difference.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Set, Tuple

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


class EigerServer(ServerBase):
    def __init__(self, pid, objects, peers, placement):
        super().__init__(pid, objects, peers, placement)
        self.lamport = 0
        #: txid -> (items, deps, sibling placement) awaiting commit
        self.pending: Dict[str, Tuple[Tuple[ValueEntry, ...], tuple, tuple]] = {}

    # -- write path (2PC with commit-time sibling deps) ----------------------

    def handle_write(self, ctx: StepContext, msg: Message, req: WriteRequest) -> None:
        if req.kind == "prepare":
            self.lamport = max(self.lamport, int(req.meta.get("client_ts", 0))) + 1
            self.pending[req.txid] = (
                req.items,
                tuple(req.meta.get("deps", ())),
                tuple(req.meta.get("siblings", ())),
            )
            self.queue_send(ctx, 
                msg.src,
                WriteReply(txid=req.txid, kind="prepared", meta={"ts": self.lamport}),
            )
        elif req.kind == "commit":
            commit_t = int(req.meta["commit_ts"])
            self._apply_commit(req.txid, commit_t)
            self.queue_send(ctx, 
                msg.src,
                WriteReply(txid=req.txid, kind="committed", meta={"commit_ts": commit_t}),
            )
        else:  # pragma: no cover - defensive
            raise NotImplementedError(f"{self.pid}: write kind {req.kind}")

    def _apply_commit(self, txid: str, commit_t: int) -> None:
        if txid not in self.pending:
            return  # already installed (e.g. via a read-triggered install)
        items, client_deps, siblings = self.pending.pop(txid)
        self.lamport = max(self.lamport, commit_t)
        local_objs = {item.obj for item in items}
        for item in items:
            deps: List[Tuple[ObjectId, Timestamp]] = list(client_deps)
            for sib_obj, sib_server in siblings:
                if sib_obj not in local_objs:
                    deps.append((sib_obj, (commit_t, sib_server, txid)))
            self.install(
                Version(
                    obj=item.obj,
                    value=item.value,
                    ts=(commit_t, self.pid, txid),
                    txid=txid,
                    deps=tuple(deps),
                )
            )

    # -- read path ------------------------------------------------------------

    def handle_read(self, ctx: StepContext, msg: Message, req: ReadRequest) -> None:
        wanted: Mapping[ObjectId, Timestamp] = req.meta.get("versions", {})
        entries: List[ValueEntry] = []
        for obj in req.keys:
            if obj in wanted:
                ts = wanted[obj]
                version = self.find_version(obj, ts)
                if version is None:
                    # the requested version is still prepared here: the
                    # request proves its commit timestamp, install now.
                    self._apply_commit(ts[2], ts[0])
                    version = self.find_version(obj, ts)
                if version is None:  # pragma: no cover - protocol invariant
                    version = self.latest(obj)
            else:
                version = self.latest(obj)
            entries.append(version.entry(deps=version.deps))
        self.queue_send(ctx, msg.src, ReadReply(txid=req.txid, values=tuple(entries)))


class EigerClient(ClientBase):
    def __init__(self, pid, servers, placement):
        super().__init__(pid, servers, placement)
        self.deps: Dict[ObjectId, Timestamp] = {}
        self.lamport = 0

    def validate(self, txn: Transaction) -> None:
        super().validate(txn)
        if txn.read_set and txn.writes:
            raise UnsupportedTransaction(
                "Eiger transactions are read-only or write-only"
            )

    # -- write path -----------------------------------------------------------

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
                    meta={
                        "client_ts": self.lamport,
                        "deps": tuple(self.deps.items()),
                        "siblings": siblings,
                    },
                ),
            )

    # -- read rounds -------------------------------------------------------------

    def _round1(self, ctx: StepContext, active: ActiveTxn) -> None:
        groups = self.partition_objects(active.txn.read_set)
        active.state["phase"] = "round1"
        active.state["entries"] = {}
        active.awaiting = set(groups)
        active.round += 1
        for server, keys in groups.items():
            ctx.send(server, ReadRequest(txid=active.txn.txid, keys=keys))

    def _check(self, ctx: StepContext, active: ActiveTxn) -> None:
        entries: Dict[ObjectId, ValueEntry] = active.state["entries"]
        needed: Dict[ObjectId, Timestamp] = {}
        for entry in entries.values():
            for dep_obj, dep_ts in entry.meta.get("deps", ()):
                if dep_obj in entries and dep_ts > entries[dep_obj].ts:
                    if dep_obj not in needed or dep_ts > needed[dep_obj]:
                        needed[dep_obj] = dep_ts
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
                if obj not in self.deps or entry.ts > self.deps[obj]:
                    self.deps[obj] = entry.ts
        self.finish(ctx)

    # -- replies ------------------------------------------------------------------

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
                    active.state["commit_ts"] = commit_t
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
                commit_t = int(p.meta["commit_ts"])
                self.lamport = max(self.lamport, commit_t)
                active.awaiting.discard(msg.src)
                if not active.awaiting and active.state["phase"] == "commit":
                    # accumulate (full dependency set — see CopsClient)
                    for obj in active.txn.write_set:
                        self.deps[obj] = (commit_t, self.primary(obj), active.txn.txid)
                    self.finish(ctx)
        elif isinstance(p, ReadReply):
            entries: Dict[ObjectId, ValueEntry] = active.state["entries"]
            for entry in p.values:
                entries[entry.obj] = entry
            active.awaiting.discard(msg.src)
            if active.awaiting:
                return
            if active.state["phase"] == "round1":
                self._check(ctx, active)
            else:
                self._complete(ctx, active)
