"""Measuring the fast-ROT properties (and more) from execution traces.

Everything here is a pure function of a recorded trace
(:meth:`~repro.sim.executor.Simulation.recording`) and the history — the
properties of Definition 4/5 are *measured*, never declared:

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
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.sim.messages import Payload
from repro.sim.trace import StepEvent, TraceEvent
from repro.txn.history import History
from repro.txn.types import ObjectId, TxnRecord


# ---------------------------------------------------------------------------
# payload introspection
# ---------------------------------------------------------------------------


def payload_references(payload: Any, txid: str) -> bool:
    """Whether a payload pertains to transaction ``txid``."""
    if getattr(payload, "txid", None) == txid:
        return True
    data = getattr(payload, "data", None)
    if isinstance(data, Mapping):
        if data.get("txid") == txid:
            return True
        for entry in data.get("entries", ()):  # Calvin batches
            if isinstance(entry, Mapping) and entry.get("txid") == txid:
                return True
    return False


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

    @property
    def one_round(self) -> bool:
        """Definition 4's one-roundtrip (:func:`one_roundtrip`); a 0-round
        ROT, for which the client sent nothing, passes as it does there."""
        return one_roundtrip(self.rounds, self.hops)

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
    txid = getattr(payload, "txid", None)
    if txid in stats:
        return txid
    data = getattr(payload, "data", None)
    if isinstance(data, Mapping):
        t = data.get("txid")
        if t in stats:
            return t
        for entry in data.get("entries", ()):
            if isinstance(entry, Mapping) and entry.get("txid") in stats:
                return entry["txid"]
    return None


# ---------------------------------------------------------------------------
# system-level characterization (one Table 1 row)
# ---------------------------------------------------------------------------


def one_roundtrip(max_rounds: int, max_hops: int) -> bool:
    """Definition 4's one-roundtrip, read literally as request/reply: one
    client send phase AND direct server replies (hop depth 2) —
    indirection through a sequencer is not a one-roundtrip read."""
    return max_rounds <= 1 and max_hops <= 2


@dataclass
class Characterization:
    protocol: str
    n_rots: int
    max_rounds: int
    max_hops: int
    max_values_per_object: int
    any_unrequested_values: bool
    any_blocked: bool
    supports_wtx: bool
    consistency_level: str
    consistency_ok: bool
    consistency_conclusive: bool
    avg_rounds: float
    blocked_share: float
    avg_messages: float
    avg_rot_latency: float
    avg_value_bytes: float
    avg_metadata_bytes: float
    #: events the simulation applied (steps, deliveries, invocations) per
    #: committed transaction
    events_per_txn: float

    @property
    def fast_rots(self) -> bool:
        return (
            one_roundtrip(self.max_rounds, self.max_hops)
            and self.max_values_per_object <= 1
            and not self.any_unrequested_values
            and not self.any_blocked
        )

    def row(self) -> Dict[str, Any]:
        return {
            "protocol": self.protocol,
            "R": self.max_rounds,
            "V": self.max_values_per_object + (1 if self.any_unrequested_values else 0),
            "N": "yes" if not self.any_blocked else "no",
            "WTX": "yes" if self.supports_wtx else "no",
            "fast": "yes" if self.fast_rots else "no",
            "consistency": self.consistency_level,
            "verified": "yes" if self.consistency_ok else "VIOLATED",
        }


def characterize(
    system: "Any",
    history: History,
    events: Sequence[TraceEvent],
    check: bool = True,
    exact: Optional[bool] = None,
) -> Characterization:
    """Measure one protocol run, recorded as ``events``, into a
    Table-1-style row."""
    from repro.consistency import check_history

    stats = analyze_transactions(events, history, servers=system.servers)
    rots = [s for s in stats.values() if s.read_only]
    if check:
        report = check_history(history, level=system.info.consistency, exact=exact)
        ok, conclusive = report.ok, report.conclusive
    else:
        ok, conclusive = True, False
    n = max(1, len(rots))
    return Characterization(
        protocol=system.info.name,
        n_rots=len(rots),
        max_rounds=max((s.rounds for s in rots), default=0),
        max_hops=max((s.hops for s in rots), default=0),
        max_values_per_object=max((s.max_values_per_object for s in rots), default=0),
        any_unrequested_values=any(s.unrequested_values for s in rots),
        any_blocked=any(s.blocked for s in rots),
        supports_wtx=system.info.supports_wtx,
        consistency_level=system.info.consistency,
        consistency_ok=ok,
        consistency_conclusive=conclusive,
        avg_rounds=sum(s.rounds for s in rots) / n,
        blocked_share=sum(s.blocked for s in rots) / n,
        avg_messages=sum(s.n_messages for s in rots) / n,
        avg_rot_latency=sum(s.latency_events for s in rots) / n,
        avg_value_bytes=sum(s.value_bytes for s in rots) / n,
        avg_metadata_bytes=sum(s.metadata_bytes for s in rots) / n,
        events_per_txn=system.sim.events_applied / max(1, len(history.records)),
    )
