"""Structured evidence produced by the impossibility engine.

Each verdict corresponds to one arm of the theorem's trade-off:

* ``NO_MULTI_WRITE`` — the protocol refused the multi-object write
  transaction ``Tw`` (it keeps fast ROTs by giving up W);
* ``NOT_FAST`` — the measured ROT properties violate Definition 4
  (≥2 rounds, blocking, or multi-value: the protocol keeps W by giving
  up fastness);
* ``CAUSAL_VIOLATION`` — the spliced execution γ (or δ) made a fast
  read-only transaction return a mix of old and new values,
  contradicting Lemma 1: the protocol "achieves" all four properties and
  is therefore not causally consistent.  The witness carries the full
  mixed read and the checker's anomaly;
* ``UNBOUNDED_VISIBILITY`` — every induction round forced another
  necessary cross-server (or implicit via-client) message while the
  written values stayed invisible: the troublesome infinite execution
  materialized up to the round budget;
* ``STALLED`` — the solo write-only transaction reached quiescence with
  its values invisible and no further messages: minimal progress
  (Definition 3) is violated outright.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.txn.types import ObjectId, Value

if TYPE_CHECKING:
    from repro.analysis.metrics import Characterization

NO_MULTI_WRITE = "NO_MULTI_WRITE"
NOT_FAST = "NOT_FAST"
CAUSAL_VIOLATION = "CAUSAL_VIOLATION"
UNBOUNDED_VISIBILITY = "UNBOUNDED_VISIBILITY"
STALLED = "STALLED"
INCONCLUSIVE = "INCONCLUSIVE"

OUTCOMES = (
    NO_MULTI_WRITE,
    NOT_FAST,
    CAUSAL_VIOLATION,
    UNBOUNDED_VISIBILITY,
    STALLED,
    INCONCLUSIVE,
)


@dataclass
class MixedReadWitness:
    """A concrete Lemma 1 contradiction: a fast ROT read a mix of values."""

    reader: str
    reads: Dict[ObjectId, Value]
    old_values: Dict[ObjectId, Value]
    new_values: Dict[ObjectId, Value]
    construction: str  # "gamma" (claim 1) or "delta" (claim 2)
    k: int
    anomalies: List[Any] = field(default_factory=list)
    trace_excerpt: str = ""

    def is_mixed(self) -> bool:
        saw_old = any(self.reads.get(o) == v for o, v in self.old_values.items())
        saw_new = any(self.reads.get(o) == v for o, v in self.new_values.items())
        return saw_old and saw_new

    def describe(self) -> str:
        pairs = ", ".join(f"{o}={v!r}" for o, v in sorted(self.reads.items()))
        return (
            f"spliced execution {self.construction} (round k={self.k}): "
            f"read-only transaction by {self.reader} returned ({pairs}) — "
            f"a mix of pre-write and written values, contradicting Lemma 1"
        )


@dataclass
class TheoremVerdict:
    """Outcome of running the impossibility engine against one protocol."""

    protocol: str
    outcome: str
    k_reached: int = 0
    witness: Optional[MixedReadWitness] = None
    detail: str = ""
    #: the measured fast-ROT probe run (present when the fast check ran)
    fast_report: Optional[Characterization] = None
    #: messages the induction forced, per round
    forced_messages: List[str] = field(default_factory=list)

    @property
    def consistent_with_theorem(self) -> bool:
        """The theorem says: a protocol never keeps all four properties.

        Every outcome except ``INCONCLUSIVE`` evidences giving up at
        least one property (or giving up causal consistency itself).
        """
        return self.outcome in (
            NO_MULTI_WRITE,
            NOT_FAST,
            CAUSAL_VIOLATION,
            UNBOUNDED_VISIBILITY,
            STALLED,
        )

    def describe(self) -> str:
        lines = [f"{self.protocol}: {self.outcome} (k={self.k_reached})"]
        if self.detail:
            lines.append(f"  {self.detail}")
        if self.witness is not None:
            lines.append("  " + self.witness.describe())
            for a in self.witness.anomalies[:3]:
                desc = a.describe() if hasattr(a, "describe") else str(a)
                lines.append(f"    anomaly: {desc}")
        for m in self.forced_messages:
            lines.append(f"  forced: {m}")
        return "\n".join(lines)
