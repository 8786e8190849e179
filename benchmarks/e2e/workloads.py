"""The four benchmark workloads.

Every workload is a *pass* repeated identically: ``build`` makes fresh
systems and scripts (untimed), ``run`` does the work that is timed, and
``check`` gives the pass its verdict.  Passes are deterministic — the
three exploration workloads are exhaustive or budget-bounded searches
and take no randomness; ``--seed`` reaches ``sim_mix`` only.

Events are driven only through ``explore`` and ``run_workload`` (lint
rule RL405).  The calls go through the module attributes, not through
names imported here, so that the traced pass's wrappers
(:mod:`spans`) are the ones called.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro.consistency.report as report_mod
import repro.core.explore as explore_mod
import repro.workloads.generators as generators_mod
from repro.core.setup import prepare_theorem_system
from repro.protocols import build_system, get_protocol, protocol_names
from repro.protocols.base import System
from repro.sim.executor import SimCounters
from repro.txn.types import read_only_txn, write_only_txn

#: fastclaim's anomaly union (sorted ``str(anomaly)`` set), pinned from
#: the commit that added the benchmark.  POR- and order-independent by
#: the repo's own invariant, so every fastclaim scenario must give it.
FASTCLAIM_ANOMALIES = (
    "CausalAnomaly(reader='Tr', obj='X0', read_value='X0:init', "
    "read_writer='Tin0', fresher_writer='Tw', fresher_value='X0:new')",
    "CausalAnomaly(reader='Tr', obj='X1', read_value='X1:init', "
    "read_writer='Tin1', fresher_writer='Tw', fresher_value='X1:new')",
)

#: exact counts of one pass, summed over its scenarios.  Reported, never
#: asserted: a change that legitimately visits fewer states must not
#: read as a failure, but a diff between two commits is a behaviour
#: change to explain.
ENGINE_COUNTS = (
    "states_visited",
    "states_deduped",
    "schedules_completed",
    "truncated",
    "checks",
    "roots_shipped",
)


@dataclass
class PassResult:
    """What one pass produced: failures, exact counts, engine timers."""

    failures: List[str] = field(default_factory=list)
    engine: Dict[str, int] = field(default_factory=dict)
    checker_seconds: float = 0.0
    auto_serial: int = 0
    txns: int = 0
    events: int = 0


class Workload:
    """One named workload; subclasses say what a pass is."""

    name = ""
    #: K, the timed passes of one run.  Fixed per workload, so that the
    #: minimum is always taken over the same number of samples however
    #: fast the box is.  The issue asked for 8/10/5/10; the driver's
    #: time cap lowered all four by the same factor, 0.8.
    passes = 0
    #: pool workers whose memory and CPU count towards the pass
    workers = 0

    def build(self, seed: int) -> Any:
        raise NotImplementedError

    def systems(self, prepared: Any) -> List[System]:
        raise NotImplementedError

    def counters(self, prepared: Any) -> Dict[str, int]:
        """``SimCounters`` booked so far, summed over the pass's systems."""
        total = dict.fromkeys(SimCounters().as_dict(), 0)
        for system in self.systems(prepared):
            for key, value in system.sim.counters.as_dict().items():
                total[key] += value
        return total

    def run(self, prepared: Any) -> Any:
        raise NotImplementedError

    def check(self, prepared: Any, outcome: Any) -> PassResult:
        raise NotImplementedError

    def check_trace(self, tracer: Any) -> List[str]:
        """Workload-specific predictions about the traced pass."""
        return []


# -- exploration ---------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """The theorem's writes racing one ROT over all objects.

    The writer's ``Tw`` is one multi-object write where the protocol
    has write transactions, one single-object write per object where it
    does not.
    """

    protocol: str
    n: int  # objects == servers
    violates: bool
    conclusive: Optional[bool] = None  # None: budget-bounded, not asserted
    knobs: Tuple[Tuple[str, Any], ...] = ()

    def build(self) -> Tuple[System, List[Tuple[str, Any]]]:
        objects = tuple(f"X{i}" for i in range(self.n))
        tsys = prepare_theorem_system(
            self.protocol, objects=objects, n_servers=self.n, n_probes=2
        )
        if get_protocol(self.protocol).supports_wtx:
            script = [(tsys.cw, tsys.tw())]
        else:
            script = [
                (tsys.cw, write_only_txn({o: tsys.new_values[o]}, txid=f"Tw{i}"))
                for i, o in enumerate(objects)
            ]
        script.append((tsys.probes[0], read_only_txn(objects, txid="Tr")))
        return tsys.system, script


class ExploreWorkload(Workload):
    def __init__(self, name: str, passes: int, scenarios: Sequence[Scenario],
                 workers: int = 0):
        self.name = name
        self.passes = passes
        self.scenarios = tuple(scenarios)
        self.workers = workers

    def serial(self) -> "ExploreWorkload":
        """The same scenarios without the pool (the speed-up's base)."""
        return ExploreWorkload(
            f"{self.name}_serial",
            1,
            [
                replace(s, knobs=tuple(kv for kv in s.knobs if kv[0] != "workers"))
                for s in self.scenarios
            ],
        )

    def build(self, seed: int) -> Any:
        return [s.build() for s in self.scenarios]

    def systems(self, prepared: Any) -> List[System]:
        return [system for system, _ in prepared]

    def run(self, prepared: Any) -> Any:
        return [
            explore_mod.explore(
                system, script, first_violation_only=False, **dict(s.knobs)
            )
            for s, (system, script) in zip(self.scenarios, prepared)
        ]

    def check(self, prepared: Any, outcome: Any) -> PassResult:
        res = PassResult(engine=dict.fromkeys(ENGINE_COUNTS, 0))
        for s, r in zip(self.scenarios, outcome):
            tag = f"{self.name}/{s.protocol}"
            if r.violation_found != s.violates:
                res.failures.append(
                    f"{tag}: violation_found={r.violation_found}, expected {s.violates}"
                )
            if s.conclusive is not None and r.conclusive != s.conclusive:
                res.failures.append(
                    f"{tag}: conclusive={r.conclusive}, expected {s.conclusive}"
                )
            if s.protocol == "fastclaim":
                union = tuple(
                    sorted({str(a) for _, found in r.violations for a in found})
                )
                if union != FASTCLAIM_ANOMALIES:
                    res.failures.append(f"{tag}: anomaly union changed: {union}")
            if self.workers and r.auto_serial:
                res.failures.append(f"{tag}: pool request was answered serially")
            for key in ENGINE_COUNTS:
                res.engine[key] += getattr(r, key)
            res.checker_seconds += r.checker_seconds
            res.auto_serial += int(r.auto_serial)
        return res


# -- forward simulation ----------------------------------------------------------

#: ``check_history`` on a 1 200-txn spanner history dies with
#: RecursionError in consistency/search.py (one frame per txn), so the
#: mix stays at or below 300 transactions per run.
MIX_TXNS = 200
MIX_OBJECTS = ("X0", "X1", "X2", "X3")


class SimMix(Workload):
    """Every registered protocol but ``handshake`` runs a read-heavy and
    a write-heavy generated workload, each checked at the protocol's
    claimed level.  No exploration: snapshot, restore and fingerprint
    are never called."""

    name = "sim_mix"
    passes = 8

    def build(self, seed: int) -> Any:
        # each of the 32 runs draws from its own stream: with one shared
        # seed every protocol would get the same client and object
        # choices, and the pass's event count would swing four times as
        # much from seed to seed (cv 1.9 % against 0.5 %)
        mixes = (
            dict(read_ratio=0.95),
            dict(read_ratio=0.1, rw_ratio=0.1),
        )
        runs = [
            (p, mix)
            for p in protocol_names()
            if p != "handshake"
            for mix in mixes
        ]
        return [
            (
                build_system(p, objects=MIX_OBJECTS, n_servers=2),
                generators_mod.WorkloadSpec(
                    n_txns=MIX_TXNS, read_size=(2, 3), seed=seed * 100 + i, **mix
                ),
            )
            for i, (p, mix) in enumerate(runs)
        ]

    def systems(self, prepared: Any) -> List[System]:
        return [system for system, _ in prepared]

    def run(self, prepared: Any) -> Any:
        out = []
        for system, spec in prepared:
            history = generators_mod.run_workload(system, spec)
            out.append(
                (history, report_mod.check_history(history, system.info.consistency))
            )
        return out

    def check(self, prepared: Any, outcome: Any) -> PassResult:
        res = PassResult(engine=dict.fromkeys(ENGINE_COUNTS, 0))
        for (system, spec), (history, report) in zip(prepared, outcome):
            tag = f"sim_mix/{system.info.name}/r{spec.read_ratio}"
            if len(history) != spec.n_txns or history.active:
                res.failures.append(
                    f"{tag}: {len(history)} of {spec.n_txns} txns committed"
                )
            # fastclaim's claimed level is the one Theorem 1 refutes: its
            # verdict depends on the seed and is recorded, not asserted
            if not report.ok and system.info.name != "fastclaim":
                res.failures.append(f"{tag}: {report.level} check failed: {report.detail}")
            res.txns += len(history)
            res.events += system.sim.event_count
        return res

    def check_trace(self, tracer: Any) -> List[str]:
        return [
            f"sim_mix: {tracer.count(span)} {span} spans, predicted none"
            for span in ("sim.snapshot", "sim.restore", "sim.fingerprint")
            if tracer.count(span)
        ]


# -- the table -------------------------------------------------------------------

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # plain serial DFS, strict fingerprints; budget-bounded because
        # every natural plain-DFS scope is >= 31k states, too long to repeat
        ExploreWorkload(
            "dfs_strict",
            6,
            (
                Scenario("fastclaim", 2, violates=True,
                         knobs=(("por", False), ("max_depth", 18), ("max_states", 5000))),
                Scenario("cops", 2, violates=False,
                         knobs=(("por", False), ("max_depth", 22), ("max_states", 5000))),
            ),
        ),
        # sleep sets + trace-canonical fingerprints, to natural completion
        ExploreWorkload(
            "por_3s",
            8,
            (
                Scenario("cops", 3, violates=False, conclusive=True,
                         knobs=(("por", True),)),
                Scenario("fastclaim", 2, violates=True, conclusive=True,
                         knobs=(("por", True),)),
            ),
        ),
        # the work-stealing pool and the shared claim table
        ExploreWorkload(
            "pool_w2",
            4,
            (
                Scenario("cops_snow", 3, violates=False, conclusive=True,
                         knobs=(("por", True), ("workers", 2), ("max_depth", 60))),
            ),
            workers=2,
        ),
        SimMix(),
    )
}
