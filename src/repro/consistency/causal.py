"""Causal-consistency checking.

Two checkers, used together:

* :func:`check_causal_exact` — the search-based decision procedure for
  Definition 1 of the paper: it derives the reads-from relation (written
  values are unique, the paper's simplifying assumption), closes program
  order ∪ reads-from into the causal order ``<c``, and then, for each
  client ``c_i``, searches for a sequential execution σᵢ over
  ``complete(H)`` that respects ``<c`` and is legal for ``c_i``'s
  transactions.  Complete but exponential; capped by a step budget.

* :func:`find_causal_anomalies` — a fast, sound witness detector based
  on the necessary condition the paper states right after Definition 1:

      a transaction ``T`` that reads value ``u`` for object ``X`` is a
      violation witness if some transaction ``W'`` also writes ``X``
      with ``writer(u) <c W' <c T``

  (with ``writer(⊥)`` ordered before everything).  Program-order edges
  make this subsume the session guarantees, and the reads-from edge from
  a fractured multi-object write makes it subsume transactional
  atomicity-under-causality (the Lemma 1 pattern).  Every reported
  anomaly is a genuine Definition-1 violation; silence is not a proof
  (use the exact checker for that, on small histories).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.consistency.search import SearchResult, find_legal_serialization
from repro.txn.history import History
from repro.txn.types import BOTTOM, ObjectId, Value

#: histories up to this many transactions get the exact search by default
EXACT_THRESHOLD = 14
#: step budget of each client's serialization search
CAUSAL_MAX_STEPS = 200_000


@dataclass(frozen=True)
class CausalAnomaly:
    """A concrete witness that a history is not causally consistent."""

    reader: str  # txid of the transaction with the stale read
    obj: ObjectId
    read_value: Value
    read_writer: Optional[str]  # txid, None for ⊥/initial
    fresher_writer: str  # the W' with writer(u) <c W' <c reader
    fresher_value: Value

    def describe(self) -> str:
        base = (
            f"{self.reader} read {self.obj}={self.read_value!r} "
            f"(written by {self.read_writer or '⊥'}) but "
            f"{self.fresher_writer} wrote {self.obj}={self.fresher_value!r} "
            f"causally after it and causally before {self.reader}"
        )
        return base


@dataclass
class CausalCheckResult:
    consistent: bool
    conclusive: bool
    anomalies: List[CausalAnomaly] = field(default_factory=list)
    per_client: Dict[str, SearchResult] = field(default_factory=dict)
    detail: str = ""


def find_causal_anomalies(history: History) -> List[CausalAnomaly]:
    """Fast, sound anomaly scan (see module docstring)."""
    history.check_unique_values()
    order = history.causal_order()
    writers = history.writer_index()
    by_obj = history.writers_by_object()

    anomalies: List[CausalAnomaly] = []
    for rec in history.records:
        for obj, val in rec.reads.items():
            writer = None if val is BOTTOM else writers.get((obj, val))
            if val is not BOTTOM and writer is None:
                # a value that nobody wrote: corrupt beyond causality
                anomalies.append(
                    CausalAnomaly(
                        reader=rec.txid,
                        obj=obj,
                        read_value=val,
                        read_writer=None,
                        fresher_writer="<nonexistent>",
                        fresher_value=val,
                    )
                )
                continue
            for other in by_obj.get(obj, ()):  # candidate W'
                if other.txid == rec.txid:
                    continue
                if writer is not None:
                    if other.txid == writer.txid:
                        continue
                    if not order.lt(writer.txid, other.txid):
                        continue
                if order.lt(other.txid, rec.txid):
                    anomalies.append(
                        CausalAnomaly(
                            reader=rec.txid,
                            obj=obj,
                            read_value=val,
                            read_writer=writer.txid if writer else None,
                            fresher_writer=other.txid,
                            fresher_value=other.txn.write_map[obj],
                        )
                    )
    return anomalies


def check_causal_exact(history: History) -> CausalCheckResult:
    """Decide Definition 1 by search (complete for small histories)."""
    history.check_unique_values()
    try:
        order = history.causal_order()
    except ValueError:
        return CausalCheckResult(
            consistent=False,
            conclusive=True,
            detail="cycle in program-order ∪ reads-from",
        )
    edges = order.edges()
    per_client: Dict[str, SearchResult] = {}
    conclusive = True
    for client in history.clients():
        result = find_legal_serialization(
            history.records,
            edges,
            legality_clients={client},
            max_steps=CAUSAL_MAX_STEPS,
        )
        per_client[client] = result
        if not result.found:
            if result.exhausted:
                conclusive = False
                continue
            return CausalCheckResult(
                consistent=False,
                conclusive=True,
                per_client=per_client,
                detail=f"no legal serialization exists for client {client}",
            )
    return CausalCheckResult(
        consistent=True if conclusive else False,
        conclusive=conclusive,
        per_client=per_client,
        detail="" if conclusive else "search budget exhausted",
    )


def check_causal(history: History, exact: Optional[bool] = None) -> CausalCheckResult:
    """Combined checker: witness scan always; exact search when feasible.

    The witness scan is sound, so any anomaly makes the verdict
    *inconsistent, conclusive* regardless of size.  For histories up to
    :data:`EXACT_THRESHOLD` transactions (or with ``exact=True``) the search
    decides the clean case too; otherwise a clean scan is reported as
    consistent-but-not-proof (``conclusive=False``).
    """
    anomalies = find_causal_anomalies(history)
    if anomalies:
        return CausalCheckResult(
            consistent=False,
            conclusive=True,
            anomalies=anomalies,
            detail=anomalies[0].describe(),
        )
    use_exact = exact if exact is not None else len(history.records) <= EXACT_THRESHOLD
    if use_exact:
        return check_causal_exact(history)
    return CausalCheckResult(
        consistent=True,
        conclusive=False,
        detail="witness scan clean; history too large for the exact search",
    )
