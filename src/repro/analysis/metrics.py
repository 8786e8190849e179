"""Measuring the fast-ROT properties (and more) from execution traces.

This module is the one place Definition 4 is decided: per ROT by
:class:`TxnStats`, per run by :class:`Characterization` (every ROT
fast, and at least one ROT).  :func:`measure` runs a seeded workload on
a fresh deployment; everything else is a pure function of a recorded
trace (:meth:`~repro.sim.executor.Simulation.recording`) and the
history — the properties of Definition 4/5 are *measured*, never
declared:

* **rounds** — the number of distinct computation steps in which the
  client sent at least one message on behalf of the transaction (the
  one-roundtrip property requires exactly 1);
* **blocking** — a server reply for the transaction sent in a later
  computation step than the one that received the triggering request
  (the non-blocking property requires same-step replies);
* **values per object** — how many written values were communicated to
  the client for each object over the whole transaction, plus values for
  objects the client did not even read (the one-value property requires
  at most one, only for requested objects stored at the sender);
* **hops** — critical-path message-chain depth (distinguishes Calvin's
  client→sequencer→server→client from a direct request/reply);
* **payload bytes** — approximate value/metadata sizes on the wire
  (quantifies COPS-RW's "prohibitively big amount of data" and
  GentleRain-vs-Orbe metadata).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple,
)

from repro.protocols.base import build_system
from repro.sim.messages import Payload
from repro.sim.scheduler import Scheduler
from repro.sim.trace import StepEvent, TraceEvent
from repro.txn.history import History
from repro.txn.types import ObjectId
from repro.workloads.generators import WorkloadSpec, run_workload

if TYPE_CHECKING:
    from repro.consistency.report import ConsistencyReport


# ---------------------------------------------------------------------------
# payload introspection
# ---------------------------------------------------------------------------


def _payload_txids(payload: Any) -> Iterator[Any]:
    """Every txid a payload names, in order: its own ``txid``, then
    ``data["txid"]``, then each entry of a Calvin batch."""
    yield getattr(payload, "txid", None)
    data = getattr(payload, "data", None)
    if isinstance(data, Mapping):
        yield data.get("txid")
        for entry in data.get("entries", ()):  # Calvin batches
            if isinstance(entry, Mapping):
                yield entry.get("txid")


def payload_references(payload: Any, txid: str) -> bool:
    """Whether a payload pertains to transaction ``txid``."""
    return txid in _payload_txids(payload)


def approx_size(obj: Any) -> int:
    """Rough wire size of a python value, in bytes."""
    if obj is None:
        return 1
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, (int, float)):
        return 8
    if isinstance(obj, str):
        return len(obj)
    if isinstance(obj, bytes):
        return len(obj)
    if isinstance(obj, Mapping):
        return sum(approx_size(k) + approx_size(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(approx_size(x) for x in obj)
    if hasattr(obj, "__dataclass_fields__"):
        return sum(
            approx_size(getattr(obj, f)) for f in obj.__dataclass_fields__
        )
    return len(repr(obj))


def payload_sizes(payload: Payload) -> Tuple[int, int]:
    """(value bytes, metadata bytes) of one payload."""
    total = approx_size(payload)
    values = 0
    if isinstance(payload, Payload):
        for entry in payload.carried_values():
            values += approx_size(getattr(entry, "value", entry))
    return values, max(0, total - values)


# ---------------------------------------------------------------------------
# per-transaction statistics
# ---------------------------------------------------------------------------


@dataclass
class TxnStats:
    txid: str
    client: str
    read_only: bool
    rounds: int = 0
    hops: int = 0
    blocked: bool = False
    #: values communicated to the client per object over the transaction
    values_per_object: Dict[ObjectId, int] = field(default_factory=dict)
    #: values for objects the client did not request (one-value breach)
    unrequested_values: int = 0
    max_values_in_message: int = 0
    n_messages: int = 0
    value_bytes: int = 0
    metadata_bytes: int = 0
    latency_events: int = 0

    @property
    def max_values_per_object(self) -> int:
        return max(self.values_per_object.values(), default=0)

    # Definition 4, decided per ROT; a run's verdicts are conjunctions of
    # these (Characterization)

    @property
    def one_round(self) -> bool:
        """One-roundtrip, read literally as request/reply: one client send
        phase AND direct server replies (hop depth 2) — indirection through
        a sequencer is not a one-roundtrip read.  A 0-round ROT, for which
        the client sent nothing, passes."""
        return self.rounds <= 1 and self.hops <= 2

    @property
    def one_value(self) -> bool:
        return self.max_values_per_object <= 1 and self.unrequested_values == 0

    @property
    def nonblocking(self) -> bool:
        return not self.blocked

    @property
    def fast(self) -> bool:
        return self.read_only and self.one_round and self.one_value and self.nonblocking


def analyze_transactions(
    events: Sequence[TraceEvent],
    history: History,
    servers: Sequence[str],
) -> Dict[str, TxnStats]:
    """Compute :class:`TxnStats` for every completed transaction from the
    recorded ``events`` of the run that produced ``history``."""
    server_set = set(servers)
    stats: Dict[str, TxnStats] = {}
    for rec in history.records:
        stats[rec.txid] = TxnStats(
            txid=rec.txid,
            client=rec.client,
            read_only=rec.txn.is_read_only,
            latency_events=rec.completed_at - rec.invoked_at,
        )
    requested: Dict[str, Set[ObjectId]] = {
        rec.txid: set(rec.txn.read_set) for rec in history.records
    }
    clients = {rec.txid: rec.client for rec in history.records}

    # depth of each message in its transaction's causal message chain
    depth: Dict[int, int] = {}

    for ev in events:
        if not isinstance(ev, StepEvent):
            continue
        for m in ev.sent:
            txid = _owning_txid(m.payload, stats)
            if txid is None:
                continue
            st = stats[txid]
            st.n_messages += 1
            vb, mb = payload_sizes(m.payload)
            st.value_bytes += vb
            st.metadata_bytes += mb
            # chain depth: 1 + max depth of same-txn messages received in
            # this step (0 if none — an originating client send)
            parent = 0
            triggered_same_step = False
            for r in ev.received:
                if payload_references(r.payload, txid) and r.msg_id in depth:
                    parent = max(parent, depth[r.msg_id])
                    triggered_same_step = True
            depth[m.msg_id] = parent + 1
            # server → client replies: blocking & one-value accounting
            if ev.pid in server_set and m.dst == clients.get(txid):
                st.hops = max(st.hops, depth[m.msg_id])
                if not triggered_same_step:
                    st.blocked = True
                if isinstance(m.payload, Payload):
                    n_vals = 0
                    for entry in m.payload.carried_values():
                        obj = getattr(entry, "obj", None)
                        n_vals += 1
                        if obj is not None:
                            st.values_per_object[obj] = (
                                st.values_per_object.get(obj, 0) + 1
                            )
                            if obj not in requested[txid]:
                                st.unrequested_values += 1
                    st.max_values_in_message = max(st.max_values_in_message, n_vals)

        # client send-phases (rounds)
        txids_sent: Set[str] = set()
        for m in ev.sent:
            txid = _owning_txid(m.payload, stats)
            if txid is not None and ev.pid == stats[txid].client:
                txids_sent.add(txid)
        for txid in txids_sent:
            stats[txid].rounds += 1
    return stats


def _owning_txid(payload: Any, stats: Mapping[str, TxnStats]) -> Optional[str]:
    """The first txid the payload names that is a transaction of ``stats``."""
    return next((t for t in _payload_txids(payload) if t in stats), None)


# ---------------------------------------------------------------------------
# system-level characterization (one Table 1 row)
# ---------------------------------------------------------------------------


@dataclass
class Characterization:
    """One measured run: its ROTs' statistics and the run's Definition-4
    verdicts, each ``n_rots > 0 and`` the per-ROT predicate on every ROT."""

    protocol: str
    rots: List[TxnStats]
    supports_wtx: bool
    consistency_level: str
    #: the checker's report on the history; ``None`` when it was not checked
    consistency: Optional["ConsistencyReport"]
    #: committed transactions
    n_txns: int
    #: events the simulation applied (steps, deliveries, invocations) per
    #: committed transaction
    events_per_txn: float

    @property
    def n_rots(self) -> int:
        return len(self.rots)

    def _holds(self, predicate: str) -> bool:
        return self.n_rots > 0 and all(getattr(s, predicate) for s in self.rots)

    @property
    def one_round(self) -> bool:
        return self._holds("one_round")

    @property
    def one_value(self) -> bool:
        return self._holds("one_value")

    @property
    def nonblocking(self) -> bool:
        return self._holds("nonblocking")

    @property
    def fast(self) -> bool:
        return self._holds("fast")

    @property
    def max_rounds(self) -> int:
        return max((s.rounds for s in self.rots), default=0)

    @property
    def max_hops(self) -> int:
        return max((s.hops for s in self.rots), default=0)

    @property
    def values(self) -> int:
        """Table 1's V: the most values a ROT got for one object, plus one
        when some ROT got a value for an object it did not request."""
        most = max((s.max_values_per_object for s in self.rots), default=0)
        return most + any(s.unrequested_values for s in self.rots)

    @property
    def n_blocked(self) -> int:
        return sum(s.blocked for s in self.rots)

    def _mean(self, stat: str) -> float:
        return sum(getattr(s, stat) for s in self.rots) / max(1, self.n_rots)

    @property
    def avg_rounds(self) -> float:
        return self._mean("rounds")

    @property
    def blocked_share(self) -> float:
        return self._mean("blocked")

    @property
    def avg_messages(self) -> float:
        return self._mean("n_messages")

    @property
    def avg_rot_latency(self) -> float:
        return self._mean("latency_events")

    @property
    def avg_value_bytes(self) -> float:
        return self._mean("value_bytes")

    @property
    def avg_metadata_bytes(self) -> float:
        return self._mean("metadata_bytes")

    @property
    def consistency_ok(self) -> Optional[bool]:
        return None if self.consistency is None else self.consistency.ok

    def failing_properties(self) -> List[str]:
        out = []
        if not self.one_round:
            out.append(
                f"one-roundtrip (measured up to {self.max_rounds} client "
                f"rounds, {self.max_hops} message hops)"
            )
        if not self.one_value:
            out.append(f"one-value (measured up to {self.values} values per object)")
        if not self.nonblocking:
            out.append(f"non-blocking ({self.n_blocked} deferred replies)")
        return out

    def describe(self) -> str:
        if not self.rots:
            return f"{self.protocol}: no ROT ran, so none was measured fast"
        if self.fast:
            return f"{self.protocol}: ROTs measured fast over {self.n_rots} ROTs"
        return (
            f"{self.protocol}: ROTs not fast — gives up "
            + "; ".join(self.failing_properties())
        )

    def row(self) -> Dict[str, Any]:
        ok = self.consistency_ok
        return {
            "protocol": self.protocol,
            "R": self.max_rounds,
            "V": self.values,
            "N": "yes" if self.nonblocking else "no",
            "WTX": "yes" if self.supports_wtx else "no",
            "fast": "yes" if self.fast else "no",
            "consistency": self.consistency_level,
            "verified": "unchecked" if ok is None else "yes" if ok else "VIOLATED",
        }


def characterize(
    system: "Any",
    history: History,
    events: Sequence[TraceEvent],
    check: bool = True,
) -> Characterization:
    """Measure one protocol run, recorded as ``events``, into a
    Table-1-style row; ``check`` runs the consistency checker on it."""
    from repro.consistency import check_history

    stats = analyze_transactions(events, history, servers=system.servers)
    return Characterization(
        protocol=system.info.name,
        rots=[s for s in stats.values() if s.read_only],
        supports_wtx=system.info.supports_wtx,
        consistency_level=system.info.consistency,
        consistency=(
            check_history(history, level=system.info.consistency) if check else None
        ),
        n_txns=len(history.records),
        events_per_txn=system.sim.events_applied / max(1, len(history.records)),
    )


def measure(
    protocol: str,
    spec: WorkloadSpec,
    *,
    check: bool = True,
    scheduler: Optional[Scheduler] = None,
    objects: Sequence[ObjectId] = ("X0", "X1", "X2", "X3"),
    **build: Any,
) -> Characterization:
    """Deploy ``protocol`` fresh (``objects`` and ``build`` go to
    :func:`~repro.protocols.base.build_system`), run the workload ``spec``
    on it and characterize the run."""
    system = build_system(protocol, objects=objects, **build)
    with system.sim.recording() as events:
        history = run_workload(system, spec, scheduler=scheduler)
    return characterize(system, history, events, check=check)
