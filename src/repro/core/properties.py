"""Measuring whether a protocol's ROTs are fast (Definition 4/5).

The engine never trusts a protocol's claim: it runs a seeded concurrent
workload on a fresh deployment of the protocol and measures, from the
trace, the three sub-properties for every read-only transaction —
one-roundtrip, one-value, non-blocking — exactly as
:mod:`repro.analysis.metrics` defines them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import analyze_transactions, one_roundtrip
from repro.protocols.base import build_system
from repro.workloads.generators import WorkloadSpec, run_workload


@dataclass
class FastRotReport:
    protocol: str
    n_rots: int
    one_round: bool
    one_value: bool
    nonblocking: bool
    max_rounds: int
    max_values_per_object: int
    n_blocked: int
    max_hops: int = 2
    detail: str = ""

    @property
    def fast(self) -> bool:
        return self.one_round and self.one_value and self.nonblocking and self.n_rots > 0

    def failing_properties(self) -> List[str]:
        out = []
        if not self.one_round:
            out.append(
                f"one-roundtrip (measured up to {self.max_rounds} client "
                f"rounds, {self.max_hops} message hops)"
            )
        if not self.one_value:
            out.append(
                f"one-value (measured up to {self.max_values_per_object} values "
                "per object)"
            )
        if not self.nonblocking:
            out.append(f"non-blocking ({self.n_blocked} deferred replies)")
        return out

    def describe(self) -> str:
        if self.fast:
            return f"{self.protocol}: ROTs measured fast over {self.n_rots} ROTs"
        return (
            f"{self.protocol}: ROTs not fast — gives up "
            + "; ".join(self.failing_properties())
        )


#: the default probe workload: enough concurrent writes to exercise
#: second rounds, blocking waits and readers checks
DEFAULT_FAST_SPEC = WorkloadSpec(
    n_txns=60, read_ratio=0.6, read_size=(2, 3), write_size=(1, 2), seed=7
)


def measure_fast_rot(
    protocol: str,
    spec: Optional[WorkloadSpec] = None,
    objects: Sequence[str] = ("X0", "X1", "X2", "X3"),
    n_servers: int = 2,
    **params: Any,
) -> FastRotReport:
    """Deploy ``protocol`` fresh, run the probe workload, measure ROTs."""
    spec = spec or DEFAULT_FAST_SPEC
    system = build_system(
        protocol, objects=objects, n_servers=n_servers, **params
    )
    with system.sim.recording() as events:
        history = run_workload(system, spec)
    stats = analyze_transactions(events, history, servers=system.servers)
    rots = [s for s in stats.values() if s.read_only]
    max_rounds = max((s.rounds for s in rots), default=0)
    max_hops = max((s.hops for s in rots), default=0)
    max_vpo = max((s.max_values_per_object for s in rots), default=0)
    any_unrequested = any(s.unrequested_values for s in rots)
    n_blocked = sum(1 for s in rots if s.blocked)
    return FastRotReport(
        protocol=protocol,
        n_rots=len(rots),
        one_round=one_roundtrip(max_rounds, max_hops),
        one_value=max_vpo <= 1 and not any_unrequested,
        nonblocking=n_blocked == 0,
        max_rounds=max_rounds,
        max_hops=max_hops,
        max_values_per_object=max_vpo + (1 if any_unrequested else 0),
        n_blocked=n_blocked,
    )
