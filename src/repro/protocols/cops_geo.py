"""COPS-Geo — COPS as actually deployed: geo-replicated datacenters.

The flat zoo models a single cluster (one authoritative server per
object), which makes some of COPS's machinery look vestigial: within one
cluster a put is visible the moment its server applies it.  The real
COPS is **geo-replicated**: every datacenter holds a full copy of the
key space (partitioned across its local servers); clients talk only to
their *local* datacenter; writes commit locally and replicate
asynchronously; and the famous *dependency check* runs at the remote
datacenter — a replicated version becomes visible only after all its
causal dependencies are visible there.

This module implements that architecture faithfully:

* servers are named ``s{dc}p{partition}``; object X's replica set is
  one partition per datacenter (the system builder's placement);
* clients carry a home datacenter (derived from their pid hash, or the
  ``home_dcs`` param) and address only its partitions;
* a put commits at the local partition (timestamp ``(lamport, dc)``),
  acks immediately, and fans out one replication message per remote
  replica;
* a remote replica holds the version *pending* and sends ``dep_check``
  messages to the local partitions of each dependency, releasing the
  version only once every dependency is visible locally — the mechanism
  that preserves causality across datacenters, and the reason
  replicated writes have visibility *lag* (measured in the geo bench);
* read-only transactions are COPS-GT's two-round protocol against the
  home datacenter only.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.sim.messages import Message, ProcessId
from repro.sim.process import StepContext
from repro.protocols.base import (
    ServerMsg,
    Timestamp,
    ValueEntry,
    Version,
    WriteReply,
    WriteRequest,
)
from repro.protocols.cops import CopsPutClient, put_clock
from repro.protocols.twophase import ExactReadClient, ExactReadServer
from repro.txn.client import UnsupportedTransaction
from repro.txn.types import ObjectId, Transaction


def server_pid(dc: int, partition: int) -> ProcessId:
    return f"s{dc}p{partition}"


def pid_dc(pid: ProcessId) -> int:
    """Datacenter index encoded in a server pid."""
    return int(pid[1 : pid.index("p")])


class PendingReplica:
    """A replicated version awaiting its dependency checks."""

    def __init__(self, version: Version, waiting: Set[ProcessId]):
        self.version = version
        self.waiting = waiting


class CopsGeoServer(ExactReadServer):
    def __init__(self, pid, objects, peers, placement):
        super().__init__(pid, objects, peers, placement)
        self.dc = pid_dc(pid)
        self.lamport = 0
        #: dep-check state: txid -> PendingReplica
        self.pending: Dict[str, PendingReplica] = {}
        #: dep checks we could not yet answer affirmatively:
        #: (obj, ts) -> list of (requester, txid)
        self.blocked_checks: Dict[Tuple[ObjectId, Timestamp], List[Tuple[ProcessId, str]]] = {}
        #: exact-timestamp reads waiting for replication: (client, req)
        self.blocked_reads: List[Tuple[ProcessId, Any]] = []

    # -- placement helpers --------------------------------------------------

    def local_replica(self, obj: ObjectId) -> ProcessId:
        """The partition of *this* datacenter holding ``obj``."""
        for replica in self.placement[obj]:
            if pid_dc(replica) == self.dc:
                return replica
        raise KeyError(f"{obj} has no replica in dc{self.dc}")

    def remote_replicas(self, obj: ObjectId) -> List[ProcessId]:
        return [r for r in self.placement[obj] if pid_dc(r) != self.dc]

    # -- local write path ----------------------------------------------------

    def handle_write(self, ctx: StepContext, msg: Message, req: WriteRequest) -> None:
        assert req.kind == "write" and len(req.items) == 1
        item = req.items[0]
        deps: Tuple[Tuple[ObjectId, Timestamp], ...] = tuple(req.meta.get("deps", ()))
        self.lamport = put_clock(self.lamport, deps)
        ts = (self.lamport, f"dc{self.dc}")
        version = Version(
            obj=item.obj, value=item.value, ts=ts, txid=req.txid, deps=deps
        )
        self.install(version)
        self._release_blocked_checks(ctx, item.obj, ts)
        self.queue_send(
            ctx, msg.src, WriteReply(txid=req.txid, kind="ack", meta={"ts": ts})
        )
        for replica in self.remote_replicas(item.obj):
            self.queue_send(
                ctx,
                replica,
                ServerMsg(
                    kind="geo_replicate",
                    data={"txid": req.txid, "ts": ts, "deps": deps},
                    values=(ValueEntry(item.obj, item.value, ts=ts, txid=req.txid),),
                ),
            )

    # -- replication + dependency checks --------------------------------------

    def handle_server(self, ctx: StepContext, msg: Message, sm: ServerMsg) -> None:
        if sm.kind == "geo_replicate":
            entry = sm.values[0]
            deps = tuple(sm.data["deps"])
            version = Version(
                obj=entry.obj,
                value=entry.value,
                ts=tuple(sm.data["ts"]),
                txid=sm.data["txid"],
                deps=deps,
                visible=False,
            )
            self.install(version)
            self.lamport = max(self.lamport, version.ts[0])
            waiting: Set[ProcessId] = set()
            for dep_obj, dep_ts in deps:
                target = self.local_replica(dep_obj)
                if target == self.pid:
                    if not self._dep_visible(dep_obj, dep_ts):
                        # wait for our own copy of the dependency
                        waiting.add(self.pid)
                        self.blocked_checks.setdefault(
                            (dep_obj, tuple(dep_ts)), []
                        ).append((self.pid, version.txid))
                else:
                    waiting.add(target)
                    self.queue_send(
                        ctx,
                        target,
                        ServerMsg(
                            kind="geo_dep_check",
                            data={
                                "txid": version.txid,
                                "obj": dep_obj,
                                "ts": tuple(dep_ts),
                            },
                        ),
                    )
            if waiting:
                self.pending[version.txid] = PendingReplica(version, waiting)
            else:
                version.visible = True
                self._release_blocked_checks(ctx, version.obj, version.ts)
        elif sm.kind == "geo_dep_check":
            obj, ts = sm.data["obj"], tuple(sm.data["ts"])
            if self._dep_visible(obj, ts):
                self.queue_send(
                    ctx,
                    msg.src,
                    ServerMsg(kind="geo_dep_ok", data={"txid": sm.data["txid"]}),
                )
            else:
                self.blocked_checks.setdefault((obj, ts), []).append(
                    (msg.src, sm.data["txid"])
                )
        elif sm.kind == "geo_dep_ok":
            self._dep_satisfied(ctx, sm.data["txid"], msg.src)
        else:  # pragma: no cover - defensive
            raise NotImplementedError(f"{self.pid}: server message {sm.kind}")

    def _dep_visible(self, obj: ObjectId, ts: Timestamp) -> bool:
        if obj not in self.store:
            return False
        return any(
            v.visible and tuple(v.ts) == tuple(ts) for v in self.store[obj]
        )

    def _dep_satisfied(self, ctx: StepContext, txid: str, source: ProcessId) -> None:
        pending = self.pending.get(txid)
        if pending is None:
            return
        pending.waiting.discard(source)
        if not pending.waiting:
            del self.pending[txid]
            pending.version.visible = True
            self._release_blocked_checks(
                ctx, pending.version.obj, pending.version.ts
            )

    def _release_blocked_checks(
        self, ctx: StepContext, obj: ObjectId, ts: Timestamp
    ) -> None:
        """A version became visible: answer checks that waited on it."""
        key = (obj, tuple(ts))
        for requester, txid in self.blocked_checks.pop(key, []):
            if requester == self.pid:
                self._dep_satisfied(ctx, txid, self.pid)
            else:
                self.queue_send(
                    ctx,
                    requester,
                    ServerMsg(kind="geo_dep_ok", data={"txid": txid}),
                )

    # -- reads (COPS-GT, home datacenter only) -----------------------------------

    def missing_version(self, client, req, obj, ts) -> None:
        # the precise dependency has not replicated here yet; COPS-GT
        # blocks this (rare) fetch until it lands
        self.blocked_reads.append((client, req))

    def wants_step(self) -> bool:
        return super().wants_step() or bool(self.blocked_reads)

    def on_tick(self, ctx: StepContext) -> None:
        blocked = self.blocked_reads
        if not blocked:
            return
        still = []
        for client, req in blocked:
            ready = all(
                self._dep_visible(obj, ts) for obj, ts in req.meta["versions"].items()
            )
            if ready and not ctx.sent_to(client):
                self.serve_read(ctx, client, req)
            else:
                still.append((client, req))
        self.blocked_reads = still


class CopsGeoClient(CopsPutClient, ExactReadClient):
    """COPS-GT client pinned to its home datacenter."""

    def __init__(self, pid, servers, placement, n_dcs: int = 2, home_dc: Optional[int] = None):
        super().__init__(pid, servers, placement)
        if home_dc is None:
            # deterministic spread of clients across datacenters
            home_dc = sum(ord(c) for c in pid) % n_dcs
        self.home_dc = home_dc
        self.deps: Dict[ObjectId, Timestamp] = {}

    # home-datacenter addressing -------------------------------------------------

    def primary(self, obj: ObjectId) -> ProcessId:
        for replica in self.replicas(obj):
            if pid_dc(replica) == self.home_dc:
                return replica
        raise KeyError(f"{obj} has no replica in dc{self.home_dc}")

    def validate(self, txn: Transaction) -> None:
        super().validate(txn)
        if len(txn.writes) > 1:
            raise UnsupportedTransaction("COPS supports only single-object writes")
        if txn.read_set and txn.writes:
            raise UnsupportedTransaction("COPS transactions are read-only or writes")


def geo_placement(
    objects: Sequence[ObjectId], n_dcs: int, partitions_per_dc: int
) -> Dict[ObjectId, Tuple[ProcessId, ...]]:
    """One replica per datacenter, objects round-robined over partitions."""
    placement: Dict[ObjectId, Tuple[ProcessId, ...]] = {}
    for i, obj in enumerate(objects):
        part = i % partitions_per_dc
        placement[obj] = tuple(server_pid(dc, part) for dc in range(n_dcs))
    return placement


def build_geo_system(
    objects: Sequence[ObjectId] = ("X0", "X1"),
    n_dcs: int = 2,
    partitions_per_dc: int = 2,
    clients: Sequence[ProcessId] = ("c0", "c1", "c2", "c3"),
    home_dcs: Optional[Mapping[ProcessId, int]] = None,
):
    """Construct a geo-replicated COPS deployment.

    Server pids are ``s{dc}p{partition}``; each datacenter holds one
    replica of every object.  ``home_dcs`` pins clients to datacenters
    (default: deterministic spread).  Returns a
    :class:`repro.protocols.base.System` whose ``info`` is the flat
    ``cops`` entry (same consistency level and capability flags).
    """
    from repro.protocols.base import System, SystemConfig
    from repro.protocols.registry import get_protocol
    from repro.sim.executor import Simulation

    objects = tuple(objects)
    placement = geo_placement(objects, n_dcs, partitions_per_dc)
    server_pids = tuple(
        server_pid(dc, part)
        for dc in range(n_dcs)
        for part in range(partitions_per_dc)
    )
    procs = []
    for spid in server_pids:
        owned = tuple(o for o in objects if spid in placement[o])
        procs.append(CopsGeoServer(spid, owned, server_pids, placement))
    for cpid in clients:
        home = None if home_dcs is None else home_dcs.get(cpid)
        procs.append(
            CopsGeoClient(cpid, server_pids, placement, n_dcs=n_dcs, home_dc=home)
        )
    sim = Simulation(procs)
    config = SystemConfig(
        protocol="cops_geo",
        objects=objects,
        servers=server_pids,
        clients=tuple(clients),
        placement=placement,
        params={"n_dcs": n_dcs, "partitions_per_dc": partitions_per_dc},
    )
    return System(config, sim, get_protocol("cops"))
