"""Occult-style — master/slave replication with client-side causal repair.

Table 1 row: R ≥ 1, V ≥ 1, non-blocking, WTX, "Per-Client Parallel SI".

Occult (Mehdi et al., NSDI'17) inverts the causal-consistency recipe:
servers never delay anything (no slowdown cascades) — instead **clients**
carry the causal metadata and repair staleness themselves:

* every object lives on a *master* shard and asynchronously replicated
  *slave* shards; each shard keeps a **shardstamp** (the high-water mark
  of writes it has applied);
* writes go to the master, bump its shardstamp, and replicate in the
  background; the client folds the new shardstamp into its *causal
  timestamp* (a per-shard vector);
* reads go to the *closest* (slave) replica, which answers immediately
  with its value and shardstamp — non-blocking by construction.  The
  client compares the shardstamp against its causal timestamp: if the
  slave lags, the read is **retried**, after a few attempts directly at
  the master — the "R ≥ 1" of Table 1: rounds are variable, paid only
  on actual staleness;
* a read-only transaction validates that its reads form a causally
  closed snapshot (every returned value's dependencies are covered by
  the client's timestamp) and re-reads what does not fit;
* write transactions use master-side 2PC (the masters are ordinary
  shards, so this reuses the client-coordinated prepare/commit shape)
  with the commit stamped into every participant's shardstamp.

Our implementation keeps Occult's architectural signature — per-shard
stamps, client-carried vectors, retry-based repair, asynchronous
master→slave replication that is *never* delayed for consistency — on
the simulator's flat topology: masters are the primary replicas, slaves
the rest.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.sim.messages import Message, ProcessId
from repro.sim.process import StepContext
from repro.protocols.base import (
    INITIAL_TS,
    ReadReply,
    ReadRequest,
    ServerBase,
    ServerMsg,
    Timestamp,
    TxnClient,
    ValueEntry,
    Version,
    WriteReply,
    WriteRequest,
)
from repro.txn.client import ActiveTxn, UnsupportedTransaction
from repro.txn.types import ObjectId, Transaction


class OccultServer(ServerBase):
    def __init__(self, pid, objects, peers, placement):
        super().__init__(pid, objects, peers, placement)
        #: per-master *stable* stamp: every write of that shard with a
        #: stamp at or below it has been applied here
        self.shardstamps: Dict[ProcessId, int] = {}
        self.clock = 0
        #: master-side prepared transactions: txid -> (items, reserved stamp)
        self.prepared: Dict[str, Tuple[Tuple[ValueEntry, ...], int]] = {}
        #: master-side replication log sequence (per shard = per self)
        self.repl_seq = 0
        #: slave-side in-order application state, per master shard
        self.repl_next: Dict[ProcessId, int] = {}
        self.repl_buffer: Dict[ProcessId, Dict[int, dict]] = {}

    # -- helpers -----------------------------------------------------------------

    def master_of(self, obj: ObjectId) -> ProcessId:
        return self.placement[obj][0]

    def is_master(self, obj: ObjectId) -> bool:
        return self.master_of(obj) == self.pid

    def _stamp(self, master: ProcessId) -> int:
        if master == self.pid:
            return self._stable()
        return self.shardstamps.get(master, 0)

    def _stable(self) -> int:
        """The master's own stable stamp: everything at or below it is
        applied; a reserved (prepared, uncommitted) stamp holds it down —
        exactly the reason 2PC makes a naive high-water mark unsound."""
        base = self.clock
        if self.prepared:
            base = min(base, min(ts for _, ts in self.prepared.values()) - 1)
        return base

    def _apply(self, obj: ObjectId, value, stamp: int, txid: str, deps) -> None:
        master = self.master_of(obj)
        self.install(
            Version(obj=obj, value=value, ts=(stamp, master, txid), txid=txid,
                    deps=tuple(deps))
        )

    # -- write path (master only) -------------------------------------------------

    def handle_write(self, ctx: StepContext, msg: Message, req: WriteRequest) -> None:
        if req.kind == "write":
            item = req.items[0]
            assert self.is_master(item.obj), f"{self.pid} is not {item.obj}'s master"
            self.clock = max(self.clock, int(req.meta.get("client_ts", 0))) + 1
            deps = tuple(req.meta.get("deps", ()))
            self._apply(item.obj, item.value, self.clock, req.txid, deps)
            self.queue_send(
                ctx,
                msg.src,
                WriteReply(
                    txid=req.txid,
                    kind="ack",
                    meta={"stamp": self.clock, "shard": self.pid},
                ),
            )
            self._replicate(ctx, item, self.clock, req.txid, deps)
        elif req.kind == "prepare":
            # reserve THIS shard's commit stamp now (Occult: transactions
            # carry per-shard stamps, not one global timestamp)
            self.clock = max(self.clock, int(req.meta.get("client_ts", 0))) + 1
            self.prepared[req.txid] = (req.items, self.clock)
            self.queue_send(
                ctx,
                msg.src,
                WriteReply(
                    txid=req.txid,
                    kind="prepared",
                    meta={"ts": self.clock, "shard": self.pid},
                ),
            )
        elif req.kind == "commit":
            items, my_stamp = self.prepared[req.txid]
            local = {item.obj for item in items}
            deps = list(req.meta.get("deps", ()))
            # sibling shards of the same transaction are mutual causal
            # dependencies (the Lemma 1 atomicity pattern); the client
            # learned every shard's reserved stamp in the prepare phase
            # and ships the full vector with the commit
            for sib_obj, sib_master, sib_stamp in req.meta.get("siblings", ()):
                if sib_obj not in local:
                    deps.append((sib_obj, (sib_stamp, sib_master, req.txid)))
            deps = tuple(deps)
            # keep the reservation while the item records are emitted, so
            # their stable marks stay below my_stamp: a slave must not
            # claim stamp my_stamp until it holds EVERY item of the commit
            for item in items:
                self._apply(item.obj, item.value, my_stamp, req.txid, deps)
                self._replicate(ctx, item, my_stamp, req.txid, deps)
            del self.prepared[req.txid]
            self._emit_stable(ctx)
            self.queue_send(
                ctx,
                msg.src,
                WriteReply(
                    txid=req.txid,
                    kind="committed",
                    meta={"stamp": my_stamp, "shard": self.pid},
                ),
            )
        else:  # pragma: no cover - defensive
            raise NotImplementedError(f"{self.pid}: write kind {req.kind}")

    def _replicate(self, ctx, item: ValueEntry, stamp: int, txid: str, deps) -> None:
        # the master ships a sequenced log: slaves apply strictly in order,
        # so a slave's shardstamp is a *contiguous-prefix* high-water mark
        # (an out-of-order application would let the stamp over-report and
        # defeat the client's staleness check)
        self.repl_seq += 1
        for replica in self.placement[item.obj]:
            if replica != self.pid:
                self.queue_send(
                    ctx,
                    replica,
                    ServerMsg(
                        kind="occ_replicate",
                        data={
                            "stamp": stamp,
                            "txid": txid,
                            "deps": tuple(deps),
                            "seq": self.repl_seq,
                            # the shard's *stable* mark rides along: 2PC
                            # stamps are reserved early and applied late,
                            # so the raw stamps are not monotone in the
                            # log — the stable mark is what a slave may
                            # honestly report as its shardstamp
                            "stable": self._stable(),
                        },
                        values=(ValueEntry(item.obj, item.value),),
                    ),
                )

    def _slaves(self):
        out = set()
        for obj in self.objects:
            if self.is_master(obj):
                for replica in self.placement[obj]:
                    if replica != self.pid:
                        out.add(replica)
        return sorted(out)

    def _emit_stable(self, ctx: StepContext) -> None:
        """Ship a value-free stable-advance record through the log."""
        self.repl_seq += 1
        for replica in self._slaves():
            self.queue_send(
                ctx,
                replica,
                ServerMsg(
                    kind="occ_replicate",
                    data={"seq": self.repl_seq, "stable": self._stable()},
                ),
            )

    def handle_server(self, ctx: StepContext, msg: Message, sm: ServerMsg) -> None:
        if sm.kind == "occ_replicate":
            master = msg.src
            buf = self.repl_buffer.setdefault(master, {})
            if sm.values:
                entry = sm.values[0]
                buf[sm.data["seq"]] = {
                    "obj": entry.obj,
                    "value": entry.value,
                    "stamp": sm.data["stamp"],
                    "txid": sm.data["txid"],
                    "deps": sm.data["deps"],
                    "stable": sm.data["stable"],
                }
            else:  # value-free stable-advance record
                buf[sm.data["seq"]] = {"stable": sm.data["stable"]}
            # Occult's signature: apply as soon as the log is contiguous,
            # never wait for cross-shard deps — staleness is the client's
            # problem (no slowdown cascades)
            nxt = self.repl_next.get(master, 1)
            while nxt in buf:
                item = buf.pop(nxt)
                if "obj" in item:
                    self._apply(
                        item["obj"], item["value"], item["stamp"], item["txid"],
                        item["deps"],
                    )
                if item["stable"] > self.shardstamps.get(master, 0):
                    self.shardstamps[master] = item["stable"]
                nxt += 1
            self.repl_next[master] = nxt
        else:  # pragma: no cover - defensive
            raise NotImplementedError(f"{self.pid}: server message {sm.kind}")

    # -- read path: answer immediately with value + shardstamp --------------------

    def handle_read(self, ctx: StepContext, msg: Message, req: ReadRequest) -> None:
        entries = []
        stamps = {}
        for obj in req.keys:
            version = self.latest(obj)
            entries.append(version.entry(deps=version.deps))
            stamps[obj] = self._stamp(self.master_of(obj))
        self.queue_send(
            ctx,
            msg.src,
            ReadReply(txid=req.txid, values=tuple(entries), meta={"stamps": stamps}),
        )


class OccultClient(TxnClient):
    """Carries the causal timestamp; repairs stale reads by retrying."""

    #: retries at the slave before escalating to the master
    max_slave_retries = 1

    def __init__(self, pid, servers, placement):
        super().__init__(pid, servers, placement)
        #: causal timestamp: master shard -> required shardstamp
        self.causal_ts: Dict[ProcessId, int] = {}
        #: dependency list for writes: (obj, (stamp, master, txid))
        self.deps: Dict[ObjectId, Timestamp] = {}

    # read from the LAST replica (the "nearest slave"); masters only on escalation
    def read_replica(self, obj: ObjectId) -> ProcessId:
        return self.replicas(obj)[-1]

    def master(self, obj: ObjectId) -> ProcessId:
        return self.replicas(obj)[0]

    def validate(self, txn: Transaction) -> None:
        super().validate(txn)
        if txn.read_set and txn.writes:
            raise UnsupportedTransaction(
                "Occult transactions are read-only or write-only"
            )

    def _note_stamp(self, master: ProcessId, stamp: int) -> None:
        if stamp > self.causal_ts.get(master, 0):
            self.causal_ts[master] = stamp

    # -- write path -----------------------------------------------------------------

    def begin_write(self, ctx: StepContext, active: ActiveTxn) -> None:
        txn = active.txn
        if len(txn.writes) == 1:
            obj, val = txn.writes[0]
            active.state["phase"] = "write"
            active.awaiting = {self.master(obj)}
            ctx.send(
                self.master(obj),
                WriteRequest(
                    txid=txn.txid,
                    kind="write",
                    items=(ValueEntry(obj, val),),
                    meta={
                        "client_ts": max(self.causal_ts.values(), default=0),
                        "deps": tuple(self.deps.items()),
                    },
                ),
            )
            return
        groups: Dict[ProcessId, List[ValueEntry]] = {}
        for obj, val in txn.writes:
            groups.setdefault(self.master(obj), []).append(ValueEntry(obj, val))
        active.state["phase"] = "prepare"
        active.state["groups"] = {s: tuple(i) for s, i in groups.items()}
        active.awaiting = set(groups)
        for server, items in groups.items():
            ctx.send(
                server,
                WriteRequest(
                    txid=txn.txid,
                    kind="prepare",
                    items=tuple(items),
                    meta={"client_ts": max(self.causal_ts.values(), default=0)},
                ),
            )

    # -- read path with retry/escalation -----------------------------------------

    def begin_read(self, ctx: StepContext, active: ActiveTxn) -> None:
        self._read_round(ctx, active, escalate=set())

    def _read_round(self, ctx: StepContext, active: ActiveTxn, escalate: Set[ObjectId]) -> None:
        groups: Dict[ProcessId, List[ObjectId]] = {}
        pending = active.state.setdefault("unresolved", set(active.txn.read_set))
        for obj in sorted(pending):  # deterministic across hash seeds
            target = self.master(obj) if obj in escalate else self.read_replica(obj)
            groups.setdefault(target, []).append(obj)
        active.state["escalated"] = escalate
        active.awaiting = set(groups)
        active.round += 1
        for server, keys in groups.items():
            ctx.send(server, ReadRequest(txid=active.txn.txid, keys=tuple(keys)))

    def _stale(self, obj: ObjectId, stamp: int) -> bool:
        return stamp < self.causal_ts.get(self.master(obj), 0)

    def handle_read_reply(
        self, ctx: StepContext, active: ActiveTxn, msg: Message, p: ReadReply
    ) -> None:
        stamps = p.meta.get("stamps", {})
        retries = active.state.setdefault("retries", {})
        stamps_seen = active.state.setdefault("stamps_seen", {})
        unresolved: Set[ObjectId] = active.state["unresolved"]
        for entry in p.values:
            obj = entry.obj
            stamp = stamps.get(obj, 0)
            if self._stale(obj, stamp):
                retries[obj] = retries.get(obj, 0) + 1
                continue  # stays unresolved: retry next round
            unresolved.discard(obj)
            active.reads[obj] = entry.value
            stamps_seen[obj] = stamp
            if entry.ts != INITIAL_TS:
                self._note_stamp(entry.ts[1], entry.ts[0])
                self.deps[obj] = tuple(entry.ts)
                # causal closure: adopt the value's dependencies too
                for dep_obj, dep_ts in entry.meta.get("deps", ()):
                    self._note_stamp(dep_ts[1], dep_ts[0])
        active.awaiting.discard(msg.src)
        if active.awaiting:
            return
        if not unresolved:
            # Occult's final validation: a read accepted early may have
            # been invalidated by a later reply's dependencies (the causal
            # timestamp only grows) — re-read anything now stale
            invalid = {
                obj
                for obj, stamp in stamps_seen.items()
                if self._stale(obj, stamp)
            }
            if not invalid:
                self.finish(ctx)
                return
            for obj in sorted(invalid):  # deterministic across hash seeds
                retries[obj] = retries.get(obj, 0) + 1
                stamps_seen.pop(obj, None)
                active.reads.pop(obj, None)
            unresolved |= invalid
        escalate = {
            obj
            for obj in unresolved
            if active.state["retries"].get(obj, 0) > self.max_slave_retries
        } | set(active.state.get("escalated", set()))
        self._read_round(ctx, active, escalate)

    def handle_write_reply(self, ctx, active, msg, p) -> None:
        if p.kind == "ack":
            self._note_stamp(p.meta["shard"], p.meta["stamp"])
            obj = active.txn.writes[0][0]
            self.deps[obj] = (p.meta["stamp"], p.meta["shard"], active.txn.txid)
            active.awaiting.discard(msg.src)
            if not active.awaiting:
                self.finish(ctx)
        elif p.kind == "prepared":
            active.state.setdefault("shard_stamps", {})[p.meta["shard"]] = int(
                p.meta["ts"]
            )
            active.awaiting.discard(msg.src)
            if not active.awaiting and active.state["phase"] == "prepare":
                shard_stamps = active.state["shard_stamps"]
                active.state["phase"] = "commit"
                active.awaiting = set(active.state["groups"])
                siblings = tuple(
                    (obj, self.master(obj), shard_stamps[self.master(obj)])
                    for obj in active.txn.write_set
                )
                for server in active.state["groups"]:
                    ctx.send(
                        server,
                        WriteRequest(
                            txid=active.txn.txid,
                            kind="commit",
                            meta={
                                "deps": tuple(self.deps.items()),
                                "siblings": siblings,
                            },
                        ),
                    )
        elif p.kind == "committed":
            self._note_stamp(p.meta["shard"], p.meta["stamp"])
            active.awaiting.discard(msg.src)
            if not active.awaiting and active.state["phase"] == "commit":
                shard_stamps = active.state["shard_stamps"]
                for obj in active.txn.write_set:
                    master = self.master(obj)
                    self.deps[obj] = (
                        shard_stamps[master],
                        master,
                        active.txn.txid,
                    )
                self.finish(ctx)
