"""Shared protocol plumbing: payloads, versions, server base, system builder.

All protocols speak through the typed payloads defined here so that the
property monitors (:mod:`repro.analysis.metrics`) can judge executions
honestly:

* every written value a server sends to a client **must** travel inside a
  :class:`ValueEntry` reachable through a payload field listed in
  ``Payload.value_fields`` — the one-value monitor counts those;
* read replies reference the request's transaction id, so blocking
  (reply deferred past the step that received the request) and round
  counting are derived purely from the trace.

The tests include a *leak detector* that scans raw payloads for written
values smuggled outside declared value fields.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.sim.executor import Simulation
from repro.sim.messages import Message, Payload, ProcessId
from repro.sim.process import Process, StepContext
from repro.sim.scheduler import RoundRobinScheduler, Scheduler, SchedulerStalled
from repro.txn.client import ActiveTxn, ClientBase
from repro.txn.types import BOTTOM, ObjectId, Transaction, TxnRecord, Value

# --------------------------------------------------------------------------
# payloads
# --------------------------------------------------------------------------

Timestamp = Tuple  # protocol-specific comparable tuples
INITIAL_TS: Timestamp = (-1,)


@dataclass(frozen=True)
class ValueEntry:
    """One written value in flight, with protocol metadata.

    ``meta`` may carry timestamps, dependency *identifiers* and similar —
    per the paper's footnote 3 metadata is allowed as long as it does not
    reveal other written values.  Protocols that do ship extra values
    (e.g. the N+R+W sketch) must wrap them in nested ``ValueEntry`` lists
    under a payload field declared in ``value_fields``.
    """

    obj: ObjectId
    value: Value
    ts: Timestamp = INITIAL_TS
    txid: str = ""
    meta: Mapping[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:
        return f"{self.obj}={self.value!r}@{self.ts}"


@dataclass(frozen=True)
class ReadRequest(Payload):
    txid: str
    keys: Tuple[ObjectId, ...]
    meta: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ReadReply(Payload):
    txid: str
    values: Tuple[ValueEntry, ...]
    meta: Mapping[str, Any] = field(default_factory=dict)
    #: extra values beyond the requested objects (used only by protocols
    #: that deliberately give up the one-value property, e.g. COPS-RW)
    aux_values: Tuple[ValueEntry, ...] = ()

    value_fields = ("values", "aux_values")


@dataclass(frozen=True)
class WriteRequest(Payload):
    """A write-path message: direct write, 2PC prepare/commit/abort."""

    txid: str
    kind: str  # "write" | "prepare" | "commit" | "abort" | "submit"
    items: Tuple[ValueEntry, ...] = ()
    meta: Mapping[str, Any] = field(default_factory=dict)
    #: extra values beyond the written objects (sibling/dependency values
    #: for protocols that ship them, e.g. COPS-RW)
    aux_items: Tuple[ValueEntry, ...] = ()

    value_fields = ("items", "aux_items")


@dataclass(frozen=True)
class WriteReply(Payload):
    txid: str
    kind: str  # "ack" | "prepared" | "committed" | "aborted"
    meta: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ServerMsg(Payload):
    """Server↔server traffic: dependency checks, stabilization, gossip."""

    kind: str
    data: Mapping[str, Any] = field(default_factory=dict)
    values: Tuple[ValueEntry, ...] = ()

    value_fields = ("values",)


# --------------------------------------------------------------------------
# server storage
# --------------------------------------------------------------------------


@dataclass
class Version:
    """One version of an object in a server's store."""

    obj: ObjectId
    value: Value
    ts: Timestamp
    txid: str = ""
    deps: Tuple[Tuple[ObjectId, Timestamp], ...] = ()
    meta: Dict[str, Any] = field(default_factory=dict)
    visible: bool = True
    #: ROT ids this version must stay hidden from (COPS-SNOW machinery)
    invisible_to: Set[str] = field(default_factory=set)

    def entry(self, **extra_meta: Any) -> ValueEntry:
        meta = dict(self.meta)
        meta.update(extra_meta)
        return ValueEntry(
            obj=self.obj, value=self.value, ts=self.ts, txid=self.txid, meta=meta
        )

    def __repr__(self) -> str:
        vis = "" if self.visible else "!"
        return f"<{self.obj}={self.value!r}@{self.ts}{vis}>"


class ServerBase(Process):
    """Base server: versioned store plus message dispatch.

    Subclasses implement the ``handle_*`` hooks.  Deferred work (blocked
    reads, commit-waits, pending replication) lives in protocol-specific
    structures; subclasses override :meth:`wants_step` accordingly.
    """

    def __init__(
        self,
        pid: ProcessId,
        objects: Sequence[ObjectId],
        peers: Sequence[ProcessId],
        placement: Mapping[ObjectId, Tuple[ProcessId, ...]],
    ):
        super().__init__(pid)
        self.objects: Tuple[ObjectId, ...] = tuple(objects)
        self.peers: Tuple[ProcessId, ...] = tuple(p for p in peers if p != pid)
        self.placement: Dict[ObjectId, Tuple[ProcessId, ...]] = dict(placement)
        self.store: Dict[ObjectId, List[Version]] = {
            obj: [Version(obj=obj, value=BOTTOM, ts=INITIAL_TS, txid="__init__")]
            for obj in self.objects
        }
        #: sends that could not go out this step (one message per neighbour
        #: per step); flushed on subsequent steps
        self.outbox: List[Tuple[ProcessId, Payload]] = []

    # -- store helpers ------------------------------------------------------

    def stores(self, obj: ObjectId) -> bool:
        return obj in self.store

    def versions(self, obj: ObjectId) -> List[Version]:
        return self.store[obj]

    def install(self, version: Version) -> Version:
        """Insert a version keeping the chain sorted by timestamp."""
        chain = self.store[version.obj]
        keys = [v.ts for v in chain]
        idx = bisect.bisect_right(keys, version.ts)
        chain.insert(idx, version)
        return version

    def latest(
        self,
        obj: ObjectId,
        pred: Optional[Callable[[Version], bool]] = None,
    ) -> Version:
        """Newest visible version satisfying ``pred`` (initial always passes)."""
        chain = self.store[obj]
        for v in reversed(chain):
            if not v.visible:
                continue
            if pred is None or pred(v) or v.ts == INITIAL_TS:
                return v
        return chain[0]

    def version_at_or_before(self, obj: ObjectId, ts: Timestamp) -> Version:
        """Newest visible version with ``version.ts <= ts``."""
        return self.latest(obj, pred=lambda v: v.ts <= ts)

    def find_version(self, obj: ObjectId, ts: Timestamp) -> Optional[Version]:
        for v in self.store[obj]:
            if v.ts == ts:
                return v
        return None

    # -- sending (one message per neighbour per step) ---------------------------

    def queue_send(self, ctx: StepContext, dst: ProcessId, payload: Payload) -> None:
        """Send now if the link is free this step, else queue for later."""
        if ctx.sent_to(dst):
            self.outbox.append((dst, payload))
        else:
            ctx.send(dst, payload)

    def _flush_outbox(self, ctx: StepContext) -> None:
        rest: List[Tuple[ProcessId, Payload]] = []
        for dst, payload in self.outbox:
            if ctx.sent_to(dst):
                rest.append((dst, payload))
            else:
                ctx.send(dst, payload)
        self.outbox = rest

    def wants_step(self) -> bool:
        return bool(self.outbox)

    # -- dispatch -------------------------------------------------------------

    def on_step(self, ctx: StepContext, inbox: Sequence[Message]) -> None:
        self._flush_outbox(ctx)
        for msg in inbox:
            p = msg.payload
            if isinstance(p, ReadRequest):
                self.handle_read(ctx, msg, p)
            elif isinstance(p, WriteRequest):
                self.handle_write(ctx, msg, p)
            elif isinstance(p, ServerMsg):
                self.handle_server(ctx, msg, p)
            else:
                self.handle_other(ctx, msg)
        self.on_tick(ctx)

    def handle_read(self, ctx: StepContext, msg: Message, req: ReadRequest) -> None:
        raise NotImplementedError

    def handle_write(self, ctx: StepContext, msg: Message, req: WriteRequest) -> None:
        raise NotImplementedError

    def handle_server(self, ctx: StepContext, msg: Message, sm: ServerMsg) -> None:
        raise NotImplementedError(f"{self.pid}: unexpected server message {sm.kind}")

    def handle_other(self, ctx: StepContext, msg: Message) -> None:
        raise TypeError(f"{self.pid}: unexpected payload {type(msg.payload).__name__}")

    def on_tick(self, ctx: StepContext) -> None:
        """End-of-step hook: gossip, retry deferred replies, advance clocks."""
        return None


class TxnClient(ClientBase):
    """Client that routes work by transaction shape and reply type.

    A read-only transaction starts in :meth:`begin_read`, any other in
    :meth:`begin_write`; replies to the current transaction go to
    :meth:`handle_read_reply` / :meth:`handle_write_reply`, and replies
    to an earlier one are dropped.
    """

    def begin(self, ctx: StepContext, active: ActiveTxn) -> None:
        if active.txn.is_read_only:
            self.begin_read(ctx, active)
        else:
            self.begin_write(ctx, active)

    def handle_message(self, ctx: StepContext, msg: Message) -> None:
        active = self.current
        p = msg.payload
        if active is None or getattr(p, "txid", None) != active.txn.txid:
            return
        if isinstance(p, ReadReply):
            self.handle_read_reply(ctx, active, msg, p)
        elif isinstance(p, WriteReply):
            self.handle_write_reply(ctx, active, msg, p)

    def count_reply(self, ctx: StepContext, active: ActiveTxn, msg: Message) -> None:
        """One awaited server replied; finish once none is awaited."""
        active.awaiting.discard(msg.src)
        if not active.awaiting:
            self.finish(ctx)


# --------------------------------------------------------------------------
# system construction
# --------------------------------------------------------------------------


def default_placement(
    objects: Sequence[ObjectId],
    servers: Sequence[ProcessId],
    replication: int = 1,
) -> Dict[ObjectId, Tuple[ProcessId, ...]]:
    """Round-robin placement with the given replication factor.

    ``replication == 1`` gives the disjoint-partitions model of Theorem 1;
    ``1 < replication < len(servers)`` gives the partially replicated
    model of Theorem 2 (no server stores every object — validated by the
    general engine, not here).
    """
    servers = tuple(servers)
    if not 1 <= replication <= len(servers):
        raise ValueError("replication factor out of range")
    placement: Dict[ObjectId, Tuple[ProcessId, ...]] = {}
    for i, obj in enumerate(objects):
        placement[obj] = tuple(
            servers[(i + r) % len(servers)] for r in range(replication)
        )
    return placement


@dataclass(frozen=True)
class SystemConfig:
    protocol: str
    objects: Tuple[ObjectId, ...]
    servers: Tuple[ProcessId, ...]
    clients: Tuple[ProcessId, ...]
    placement: Mapping[ObjectId, Tuple[ProcessId, ...]]
    params: Mapping[str, Any] = field(default_factory=dict)


class TransactionIncomplete(RuntimeError):
    """Driving the system did not complete the submitted transaction."""


class System:
    """A runnable protocol deployment: simulation + roles + drivers."""

    def __init__(self, config: SystemConfig, sim: Simulation, info: "Any"):
        self.config = config
        self.sim = sim
        self.info = info
        self.servers = config.servers
        self.clients = config.clients

    @property
    def service_pids(self) -> Tuple[ProcessId, ...]:
        """Servers plus auxiliary service processes (e.g. a sequencer)."""
        aux = tuple(
            p
            for p in self.sim.processes
            if p not in self.config.servers and p not in self.config.clients
        )
        return tuple(self.config.servers) + aux

    # -- role access -----------------------------------------------------------

    def client(self, pid: ProcessId) -> ClientBase:
        proc = self.sim.processes[pid]
        if not isinstance(proc, ClientBase):
            raise TypeError(f"{pid} is not a client")
        return proc

    def server(self, pid: ProcessId) -> ServerBase:
        proc = self.sim.processes[pid]
        if not isinstance(proc, ServerBase):
            raise TypeError(f"{pid} is not a server")
        return proc

    # -- drivers ------------------------------------------------------------------

    def execute(
        self,
        client_pid: ProcessId,
        txn: Transaction,
        scheduler: Optional[Scheduler] = None,
        max_events: int = 50_000,
    ) -> TxnRecord:
        """Invoke ``txn`` on a client and drive fairly until it completes.

        Raises :class:`UnsupportedTransaction` if the protocol refuses the
        shape, :class:`TransactionIncomplete` if the run stalls.
        """
        from repro.txn.client import UnsupportedTransaction

        client = self.client(client_pid)
        before = len(client.completed)
        n_failed = len(client.failed)
        self.sim.invoke(client_pid, txn)
        sched = scheduler if scheduler is not None else RoundRobinScheduler()

        def done(sim: Simulation) -> bool:
            return len(client.completed) > before or len(client.failed) > n_failed

        try:
            sched.run(self.sim, until=done, max_events=max_events)
        except SchedulerStalled as exc:
            raise TransactionIncomplete(
                f"{txn.txid} on {client_pid} did not complete: {exc}"
            ) from exc
        if len(client.failed) > n_failed:
            failed_txn, reason = client.failed[-1]
            raise UnsupportedTransaction(reason)
        return client.completed[-1]

    def settle(self, max_events: int = 50_000) -> None:
        """Drive the system until global quiescence."""
        sched = RoundRobinScheduler()
        sched.run(self.sim, max_events=max_events)

    def history(self):
        from repro.txn.history import build_history

        return build_history(self.sim, clients=self.clients)


def build_system(
    protocol: str,
    objects: Sequence[ObjectId] = ("X0", "X1"),
    n_servers: int = 2,
    clients: Sequence[ProcessId] = ("c0", "c1", "c2", "c3"),
    placement: Optional[Mapping[ObjectId, Tuple[ProcessId, ...]]] = None,
    replication: int = 1,
    **params: Any,
) -> System:
    """Construct a runnable :class:`System` for a registered protocol."""
    from repro.protocols.registry import get_protocol

    info = get_protocol(protocol)
    server_pids = tuple(f"s{i}" for i in range(n_servers))
    client_pids = tuple(clients)
    objects = tuple(objects)
    if placement is None:
        placement = default_placement(objects, server_pids, replication)
    placement = {k: tuple(v) for k, v in placement.items()}
    for obj in objects:
        if obj not in placement:
            raise ValueError(f"object {obj} missing from placement")
        for s in placement[obj]:
            if s not in server_pids:
                raise ValueError(f"placement of {obj} names unknown server {s}")

    extras = info.make_extras(server_pids, placement, params)
    extra_pids = tuple(p.pid for p in extras)

    procs: List[Process] = list(extras)
    for spid in server_pids:
        owned = tuple(o for o in objects if spid in placement[o])
        procs.append(
            info.make_server(spid, owned, server_pids, placement, params, extra_pids)
        )
    for cpid in client_pids:
        procs.append(
            info.make_client(cpid, server_pids, placement, params, extra_pids)
        )

    sim = Simulation(procs)
    config = SystemConfig(
        protocol=protocol,
        objects=objects,
        servers=server_pids,
        clients=client_pids,
        placement=placement,
        params=dict(params),
    )
    return System(config, sim, info)
