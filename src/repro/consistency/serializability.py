"""(Strict) serializability checking by serialization search.

Serializability: one global legal serialization of all transactions.
Strict serializability: additionally respects real-time precedence
(``T1`` completed before ``T2`` was invoked ⇒ ``T1`` before ``T2``).
Both reuse the search engine; both are exact but exponential, so they
are meant for the small histories the test/bench workloads produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.consistency.search import SearchResult, find_legal_serialization
from repro.txn.history import History

#: step budget of the global serialization search
SERIAL_MAX_STEPS = 400_000


@dataclass
class SerializabilityResult:
    serializable: bool
    conclusive: bool
    order: Optional[List[str]] = None
    detail: str = ""


def check_serializable(history: History, strict: bool = False) -> SerializabilityResult:
    history.check_unique_values()
    edges = history.realtime_edges() if strict else []
    result = find_legal_serialization(
        history.records, edges, legality_clients=None, max_steps=SERIAL_MAX_STEPS
    )
    if result.found:
        return SerializabilityResult(
            serializable=True, conclusive=True, order=result.order
        )
    if result.exhausted:
        return SerializabilityResult(
            serializable=False,
            conclusive=False,
            detail="search budget exhausted",
        )
    kind = "strictly serializable" if strict else "serializable"
    return SerializabilityResult(
        serializable=False,
        conclusive=True,
        detail=f"no legal global serialization: history is not {kind}",
    )


def check_strict_serializable(history: History) -> SerializabilityResult:
    return check_serializable(history, strict=True)
