"""Outside-in layer spans for the traced pass.

The end-to-end metrics are taken with nothing installed.  For the one
traced pass, :func:`install` replaces the layers' public entry points —
by attribute assignment from here, no edit under ``src/`` — with a
stack-based wrapper that records name, start, end and parent.  A span's
self time is its duration minus the time its child spans cover, so the
per-name self times sum to the root span by construction
(:meth:`Tracer.validate` checks that this still holds).

Patched classes survive the ``bytes``-mode unpickle on restore because
pickle resolves classes by reference, and forked pool workers inherit
the wrappers but record into their own copy of the tracer: the spans
reported for ``pool_w2`` are the parent's side only.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Tuple

import repro.consistency.report as report_mod
import repro.core.explore as explore_mod
import repro.engine.parallel as parallel_mod
import repro.workloads.generators as generators_mod
from repro.consistency.incremental import IncrementalChecker
from repro.protocols.base import System
from repro.sim.executor import Simulation
from repro.sim.scheduler import RandomScheduler

ROOT = "pass"

#: raw spans kept in memory (the first ones of the pass); the per-name
#: aggregates cover every span
RAW_SPANS_KEPT = 2000

#: (owner, attribute, span name) of every fixed entry point; the
#: protocols' ``on_step`` handlers are added per built system
_TARGETS: Tuple[Tuple[Any, str, str], ...] = (
    (Simulation, "snapshot", "sim.snapshot"),
    (Simulation, "restore", "sim.restore"),
    (Simulation, "fingerprint", "sim.fingerprint"),
    (Simulation, "step", "sim.step"),
    (Simulation, "deliver", "sim.deliver"),
    (Simulation, "invoke", "sim.invoke"),
    (RandomScheduler, "tick", "sim.sched_tick"),
    (explore_mod, "engine_run", "engine.run"),
    (parallel_mod, "run_parallel", "pool.run_parallel"),
    (IncrementalChecker, "advance", "consistency.advance"),
    (IncrementalChecker, "checkpoint", "consistency.rollback"),
    (IncrementalChecker, "rollback", "consistency.rollback"),
    (report_mod, "check_history", "consistency.check_history"),
    (generators_mod.WorkloadGenerator, "schedule", "workloads.generate"),
    (generators_mod, "run_workload", "workloads.run"),
    (System, "history", "txn.history"),
)


class Tracer:
    """Span stack + per-name aggregates for one traced pass."""

    def __init__(self) -> None:
        #: open spans: [name, start, seconds covered by children, id]
        self._stack: List[List[Any]] = []
        #: name -> [count, total seconds, self seconds]
        self.stats: Dict[str, List[float]] = {}
        #: (id, parent id, name, start, end) of the first spans opened
        self.raw: List[Tuple[int, int, str, float, float]] = []
        self._next_id = 0
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        stats = self.stats
        raw = self.raw

        def traced(*args: Any, **kwargs: Any) -> Any:
            if stack and stack[-1][0] == name:
                # a handler calling its own super(): one span, not two
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [name, 0.0, 0.0, span_id]
            stack.append(frame)
            frame[1] = start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                row = stats.get(name)
                if row is None:
                    row = stats[name] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if span_id < RAW_SPANS_KEPT:
                    raw.append((span_id, stack[-1][3] if stack else -1, name, start, end))

        return traced

    def run_root(self, fn: Callable, *args: Any) -> Any:
        """Run ``fn(*args)`` as the root span of the pass."""
        return self._wrap(ROOT, fn)(*args)

    # -- installing ----------------------------------------------------------

    def _patch(self, owner: Any, attr: str, name: str) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def install(self, systems: Iterable[System]) -> None:
        """Wrap every layer boundary, plus the ``on_step`` of every
        class in the MROs of ``systems``' processes that defines one."""
        for owner, attr, name in _TARGETS:
            self._patch(owner, attr, name)
        checkers = [IncrementalChecker]
        while checkers:
            cls = checkers.pop()
            checkers.extend(cls.__subclasses__())
            if "anomalies" in cls.__dict__:
                self._patch(cls, "anomalies", "consistency.anomalies")
        handlers = []
        for system in systems:
            for proc in system.sim.processes.values():
                for cls in type(proc).__mro__:
                    if "on_step" in cls.__dict__ and cls not in handlers:
                        handlers.append(cls)
        for cls in handlers:
            self._patch(cls, "on_step", "protocols.on_step")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def count(self, name: str) -> int:
        return int(self.stats.get(name, (0, 0.0, 0.0))[0])

    def total(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def layer_self_s(self, prefix: str) -> float:
        """Self seconds of every span whose name starts with ``prefix``."""
        return sum(r[2] for n, r in self.stats.items() if n.startswith(prefix))

    def validate(self, counters: Dict[str, int], exact: bool) -> List[str]:
        """Span-boundary checks; returns the failures.

        A wrapper that no longer sits on the real boundary must fail
        loudly instead of reporting zeros: the span counts are compared
        with the engine's own ``SimCounters`` for the same pass.  With
        ``exact=False`` (the pool: workers' counters are merged into the
        parent's ledger, their spans are not) the parent's spans may only
        be fewer.
        """
        failures = []
        if self._stack:
            failures.append(f"{len(self._stack)} spans still open")
        root = self.total(ROOT)
        self_sum = sum(r[2] for r in self.stats.values())
        if self.count(ROOT) != 1 or abs(self_sum - root) > 0.01 * root:
            failures.append(
                f"self times sum to {self_sum:.6f}s, root span is {root:.6f}s"
            )
        for span, counter in (
            ("sim.snapshot", "snapshots"),
            ("sim.restore", "restores"),
            ("sim.fingerprint", "fingerprints"),
        ):
            seen, booked = self.count(span), counters[counter]
            if (seen != booked) if exact else (seen > booked):
                failures.append(
                    f"{seen} {span} spans but SimCounters.{counter} == {booked}"
                )
        if self.count("protocols.on_step") != self.count("sim.step"):
            failures.append(
                f"{self.count('protocols.on_step')} on_step spans under "
                f"{self.count('sim.step')} sim.step spans"
            )
        return failures

    def table(self) -> List[Dict[str, Any]]:
        root = self.total(ROOT) or 1.0
        rows = [
            {
                "name": name,
                "count": int(row[0]),
                "total_s": row[1],
                "self_s": row[2],
                "self_share": row[2] / root,
            }
            for name, row in self.stats.items()
        ]
        rows.sort(key=lambda r: -r["self_s"])
        return rows

    def dump(self, path: Any, workload: str) -> None:
        doc = {
            "workload": workload,
            "root": ROOT,
            "table": self.table(),
            "spans_kept": len(self.raw),
            "spans": [
                {"id": i, "parent": p, "name": n, "start": s, "end": e}
                for i, p, n, s, e in sorted(self.raw)
            ],
        }
        path.write_text(json.dumps(doc, indent=1) + "\n")
