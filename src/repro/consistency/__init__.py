"""Consistency checkers.

* :func:`check_causal` / :func:`check_causal_exact` /
  :func:`find_causal_anomalies` — Definition 1 of the paper;
* :func:`check_serializable` / :func:`check_strict_serializable`;
* :func:`check_read_atomic` / :func:`find_fractured_reads` — RAMP's level;
* :func:`check_sessions` — the four session guarantees;
* :func:`check_history` — one-call verdict at a claimed level;
* :class:`IncrementalCausalChecker` — the delta-driven, checkpointable
  version of :func:`find_causal_anomalies` for the exploration hot path.
"""

from repro.consistency.atomicity import (
    FracturedRead,
    check_read_atomic,
    find_fractured_reads,
)
from repro.consistency.incremental import (
    IncrementalCausalChecker,
    IncrementalChecker,
)
from repro.consistency.causal import (
    CausalAnomaly,
    CausalCheckResult,
    check_causal,
    check_causal_exact,
    find_causal_anomalies,
)
from repro.consistency.report import LEVELS, ConsistencyReport, check_history
from repro.consistency.search import SearchResult, find_legal_serialization
from repro.consistency.serializability import (
    SerializabilityResult,
    check_serializable,
    check_strict_serializable,
)
from repro.consistency.sessions import SessionViolation, check_sessions

__all__ = [
    "FracturedRead",
    "check_read_atomic",
    "find_fractured_reads",
    "CausalAnomaly",
    "CausalCheckResult",
    "check_causal",
    "check_causal_exact",
    "find_causal_anomalies",
    "LEVELS",
    "ConsistencyReport",
    "check_history",
    "SearchResult",
    "find_legal_serialization",
    "SerializabilityResult",
    "check_serializable",
    "check_strict_serializable",
    "SessionViolation",
    "check_sessions",
    "IncrementalChecker",
    "IncrementalCausalChecker",
]
