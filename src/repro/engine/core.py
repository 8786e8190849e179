"""The unified exploration engine: one depth-first search, budgets, reduction.

This package owns schedule-space exploration end to end: one DFS over
the live simulation, with the seen-set, the state/depth budgets and the
truncation accounting implemented here, once.

* **Partial-order reduction** (``por=True``) — driven by the
  :func:`repro.sim.events.independent` relation, in two coupled parts.
  The seen-set keys on the *trace-canonical* fingerprint
  (``Simulation.fingerprint(canonical=True)``), under which the two
  sides of every commuting diamond are the same state — that quotient,
  one representative per Mazurkiewicz trace, is where the state-count
  reduction comes from.  On top of it, *sleep sets* prune the redundant
  sibling orders so merged states are mostly not even generated.
  Soundness: sleep sets never prune a trace entirely, only redundant
  interleavings of commuting events, so every reachable *quiescent*
  configuration (and hence every checked history and every verdict) is
  still reached; combined with the seen-set, a revisited configuration
  is only skipped when a previous visit had a subset sleep set (i.e.
  explored at least as much).  See ``docs/model.md``.
* **Parallel frontier** (``workers=N``, exhaustive DFS of a POR-safe
  protocol) — :mod:`repro.engine.parallel` fans DFS-preorder subtree
  roots out to ``multiprocessing`` workers over one shared claim set;
  snapshots are self-contained bytes and fingerprints are
  hash-seed-independent, so results merge deterministically.  Every
  other ``workers > 1`` request is answered serially (``auto_serial``).
* **Stuttering steps** — a ``Step`` that
  :func:`repro.sim.events.step_stutters` names lands on its node's own
  configuration, so the DFS decides it from the node's fingerprint and
  the seen-set instead of applying it (see ``docs/model.md``).

The engine applies events exclusively through
:meth:`repro.sim.events.Event.apply`; ``repro.lint`` rule RL405 keeps
every other layer honest about that.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, FrozenSet, List, Optional, Sequence, Tuple

from repro.engine.outcome import SearchOutcome
from repro.sim.events import (
    Event, EventTable, Step, any_enabled, independent, step_stutters,
)
from repro.sim.executor import Configuration, SimCounters, Simulation
from repro.sim.messages import ProcessId

_EMPTY: FrozenSet[Event] = frozenset()

#: the leaf-verdict memo's bound, the state table's (cleared on overflow)
_VERDICT_CAP = 4096


def _wall() -> float:
    """Host wall-clock, for ``checker_seconds`` instrumentation only.

    The value never feeds simulated time, verdicts or fingerprints — it
    measures the real cost of the leaf checks.
    """
    # repro-lint: disable=RL101 — host-side cost instrumentation; the
    # simulation never observes this value
    return time.perf_counter()


@dataclass
class SearchNode:
    """One frontier entry: a configuration plus how we got there."""

    snapshot: Configuration
    fingerprint: bytes
    trail: Tuple[Event, ...]
    depth: int
    #: sleep set: events whose exploration from this node is already
    #: covered by a sibling branch (empty unless POR is on)
    sleep: FrozenSet[Event] = _EMPTY
    #: parallel seeding: violations the walk had found when this root
    #: was collected (they precede the root's subtree in DFS preorder)
    violations_before: int = 0


@dataclass
class ExplorationResult(SearchOutcome):
    """Outcome of a (possibly reduced, possibly parallel) exploration.

    Extends the repo-wide :class:`SearchOutcome` budget vocabulary:
    ``steps`` mirrors ``states_visited`` and ``exhausted`` reports a
    spent state budget.  ``states_visited`` counts configurations
    actually *expanded*; revisits pruned by the seen-set are counted
    separately in ``states_deduped``.
    """

    protocol: str = ""
    states_visited: int = 0     #: configurations expanded
    states_deduped: int = 0     #: revisits pruned by the seen-fingerprint set
    schedules_completed: int = 0
    truncated: int = 0          #: branches cut by the depth or state budget
    violations: List[Tuple[List[str], List]] = field(default_factory=list)
    #: snapshot/restore cost accounting for the run (see SimCounters)
    counters: Optional[SimCounters] = None
    por: bool = False
    workers: int = 1
    #: a ``workers > 1`` request answered serially: not an exhaustive
    #: DFS of a POR-safe protocol (see :func:`run`), or the seeding
    #: walk found too few subtree roots to keep a pool busy (see
    #: :mod:`repro.engine.parallel`)
    auto_serial: bool = False
    #: parallel runs: subtree roots the seeding walk shipped to the pool
    roots_shipped: int = 0
    #: parallel runs: states the whole pool deduped against the *shared*
    #: fingerprint claim set (cross-worker dedup; worker-local seen-set
    #: dedup stays inside ``states_deduped`` alongside it)
    shared_seen_hits: int = 0
    #: wall-clock spent in leaf checks (history key, extraction + scan)
    checker_seconds: float = 0.0
    #: leaves whose history was scanned: one per distinct leaf history
    #: of a search (the others take the memoised verdict)
    checker_runs: int = 0

    @property
    def checks(self) -> int:
        """Leaves whose history was given a verdict: every completed
        schedule is checked."""
        return self.schedules_completed

    @property
    def violation_found(self) -> bool:
        return bool(self.violations)

    @property
    def conclusive(self) -> bool:
        """No budget cut any branch: the verdict covers the whole scope."""
        return not self.exhausted and self.truncated == 0

    def describe(self) -> str:
        knobs = "dfs" + ("+por" if self.por else "")
        if self.workers > 1:
            knobs += f"+workers={self.workers}"
            if self.auto_serial:
                knobs += "(auto-serial)"
        head = (
            f"{self.protocol} [{knobs}]: explored {self.states_visited} states "
            f"({self.states_deduped} deduped), "
            f"{self.schedules_completed} complete schedules "
            f"({self.checker_runs} histories scanned), "
            f"{self.truncated} truncated"
        )
        if not self.violations:
            lines = [head + " — no causal violation in scope"]
        else:
            sched, anomalies = self.violations[0]
            lines = [head + f" — {len(self.violations)} violating schedule(s)"]
            lines.append("  first violating schedule:")
            for s in sched:
                lines.append(f"    {s}")
            for a in anomalies[:2]:
                lines.append(f"  anomaly: {a.describe()}")
        if self.counters is not None:
            lines.append(f"  cost: {self.counters.describe()}")
        if self.workers > 1 and not self.auto_serial and self.counters is not None:
            c = self.counters
            lines.append(
                f"  pool: {self.roots_shipped} roots shipped; shared seen-set "
                f"{c.shared_seen_hits} hits / {c.shared_seen_inserts} inserts"
            )
        return "\n".join(lines)


def resolve_checker(checker: str) -> Callable:
    """Map a checker name to its whole-history anomaly scan."""
    if checker == "causal":
        from repro.consistency.causal import find_causal_anomalies

        return find_causal_anomalies
    if checker == "read-atomic":
        from repro.consistency.atomicity import find_fractured_reads

        return find_fractured_reads
    if checker == "sessions":
        from repro.consistency.sessions import check_sessions

        return check_sessions
    raise ValueError(f"unknown checker {checker!r}")


def _leaf_key(records) -> tuple:
    """A leaf history's memo key for the stamp-blind checkers (causal,
    sessions): each record's txid, client, reads and writes, in
    :func:`~repro.txn.history.build_history`'s order, which is all they
    read — the order carries each client's program order."""
    return tuple([(r.txn.txid, r.client, tuple(r.reads.items()), r.txn.writes)
                  for r in records])


def _stamped_leaf_key(records) -> tuple:
    """:func:`_leaf_key` plus each record's real-time stamps, which the
    read-atomic checker reads."""
    return _leaf_key(records), tuple([(r.invoked_at, r.completed_at) for r in records])


def _leaf_key_for(checker: Callable) -> Callable:
    """The leaf-history key that carries what ``checker`` reads: the
    stamp-blind key for the causal and session scans, the stamped key
    for every other checker."""
    from repro.consistency.causal import find_causal_anomalies
    from repro.consistency.sessions import check_sessions

    if checker is find_causal_anomalies or checker is check_sessions:
        return _leaf_key
    return _stamped_leaf_key


def clients_done(sim: Simulation, clients: Sequence[ProcessId]) -> bool:
    """Every client idle: no active transaction, nothing pending."""
    from repro.txn.client import ClientBase

    for c in clients:
        p = sim.processes[c]
        if not isinstance(p, ClientBase) or p.current is not None or p.pending:
            return False
    return True


class SerialSearch:
    """One depth-first search over one live simulation.

    Owns the seen-set, budgets and truncation accounting.  The caller
    provides the simulation positioned at the root configuration; the
    search mutates it freely (snapshot/restore discipline) and leaves it
    in an unspecified configuration.
    """

    def __init__(
        self,
        sim: Simulation,
        pids: Sequence[ProcessId],
        clients: Sequence[ProcessId],
        result: ExplorationResult,
        checker: Callable,
        max_depth: int,
        max_states: int,
        first_violation_only: bool,
        por: bool,
        trail_prefix: Tuple[str, ...] = (),
        canonical_keys: bool = False,
        seen=None,
        budget=None,
    ):
        self.sim = sim
        self.pids = tuple(pids)
        #: this search's interned events and delivery filter
        self._events = EventTable(sim, self.pids)
        self.clients = tuple(clients)
        self.result = result
        #: the whole-history scan run at every quiescent leaf history
        #: not seen before in this search
        self.checker = checker
        self._leaf_key = _leaf_key_for(checker)
        #: leaf history key -> its anomalies (bounded like the state
        #: table: cleared on overflow)
        self._verdicts: dict = {}
        self.max_depth = max_depth
        self.max_states = max_states
        self.first_violation_only = first_violation_only
        self.por = por
        #: labels prepended to violation schedules (parallel subtree roots)
        self.trail_prefix = trail_prefix
        #: key the seen-set canonically even without POR (parallel mode,
        #: POR-safe protocols only).  The strict fingerprint deliberately
        #: excludes the event/message counters, so two strict-equal
        #: states can still differ in *future fingerprint identity* —
        #: under a cross-worker claim set that would make the explored
        #: region depend on which worker claimed first.  The canonical
        #: print is counter-blind *and* a bisimulation for POR-safe
        #: protocols, so the claimed quotient is schedule-independent.
        self.canonical_keys = canonical_keys
        #: pool workers only (None when serial): the cross-worker claim
        #: set (``claim(fp) -> bool``) and the pool-wide state budget
        #: (``take() -> bool``) — see :mod:`repro.engine.parallel`
        self.seen = seen
        self.budget = budget
        self.abort = False      # first violation found: stop everything
        self.exhausted = False  # state budget spent: stop everything
        # frontier collection (the pool's seeding walk): a node at this
        # depth is recorded as a subtree root instead of expanded
        self._cutoff: float = float("inf")
        self._frontier: List[SearchNode] = []
        # fingerprint -> sleep sets it was visited with.  A revisit is
        # skippable iff some previous visit slept on a *subset* of what
        # we would sleep on now (it explored at least as much).  Without
        # POR every sleep set is empty and this degenerates to a set.
        self._seen: dict = {}
        self._trail: List[Event] = []

    def _fingerprint(self) -> bytes:
        """The seen-set key for the current configuration.

        POR keys on the trace-canonical fingerprint so commuting
        interleavings merge; without POR the strict (msg_id-covering)
        fingerprint is used — except under ``canonical_keys`` (parallel
        workers on POR-safe protocols), where canonical keying keeps the
        cross-worker claimed quotient deterministic.
        """
        return self.sim.fingerprint(canonical=self.por or self.canonical_keys)

    # -- seen-set ---------------------------------------------------------

    def _covered(self, fp: bytes, sleep: FrozenSet[Event]) -> bool:
        prior = self._seen.get(fp)
        if prior is None:
            return False
        if not self.por:
            return True
        return any(s <= sleep for s in prior)

    def _remember(self, fp: bytes, sleep: FrozenSet[Event]) -> None:
        if not self.por:
            self._seen[fp] = True
            return
        prior = self._seen.setdefault(fp, [])
        prior[:] = [s for s in prior if not (sleep <= s)]
        prior.append(sleep)

    def seen_fingerprints(self) -> List[bytes]:
        """Every fingerprint this search remembered (expanded or, for a
        seeding walk, collected as a root)."""
        return list(self._seen)

    # -- budget ------------------------------------------------------------

    def _count_state(self) -> bool:
        """Count one expanded state against the budget; False = stop.

        Serial searches keep the historical local semantics (count, then
        exhaust when the count passes ``max_states``).  A pool worker
        counts a state only if the shared ``budget`` grants it, so the
        pool's total ``states_visited`` can never exceed the requested
        cap no matter how many workers run.
        """
        r = self.result
        if self.budget is not None:
            if not self.budget.take():
                self.exhausted = True
                r.truncated += 1
                return False
            r.states_visited += 1
            return True
        r.states_visited += 1
        if r.states_visited > self.max_states:
            self.exhausted = True
            r.truncated += 1
            return False
        return True

    def _claimed_elsewhere(self, fp: bytes) -> bool:
        """Claim ``fp`` in the cross-worker set; True = another worker
        already owns it (a cross-worker dedup).  A winning claim makes
        this worker the one expander of the fingerprint.  Pool searches
        run without sleep sets, so every visit's coverage is universal
        and every visit claims (see docs/model.md)."""
        if self.seen is None:
            return False
        c = self.sim.counters
        if self.seen.claim(fp):
            c.shared_seen_inserts += 1
            return False
        c.shared_seen_hits += 1
        return True

    # -- leaves -----------------------------------------------------------

    def _check_leaf(self) -> None:
        """Judge the quiescent leaf's history.  Definition 1 judges a
        history, not a schedule, so the scan runs once per distinct
        history key (:func:`_leaf_key_for`), taken from the clients'
        records before any :class:`~repro.txn.history.History` is built;
        a repeat takes the memoised anomalies.  Every violating leaf
        still reports its own trail and its own list."""
        from repro.txn.history import build_history

        r = self.result
        r.schedules_completed += 1
        t0 = _wall()
        processes = self.sim.processes
        records = sorted(
            [rec for c in self.clients for rec in processes[c].completed],
            key=lambda rec: (rec.invoked_at, rec.txid),
        )
        key = self._leaf_key(records)
        anomalies = self._verdicts.get(key)
        if anomalies is None:
            anomalies = self.checker(build_history(self.sim, clients=self.clients))
            r.checker_runs += 1
            if len(self._verdicts) >= _VERDICT_CAP:
                self._verdicts.clear()
            self._verdicts[key] = anomalies
        r.checker_seconds += _wall() - t0
        if anomalies:
            labels = list(self.trail_prefix) + [e.label for e in self._trail]
            r.violations.append((labels, list(anomalies)))
            if self.first_violation_only:
                self.abort = True

    def _child_sleep(
        self, sleep: FrozenSet[Event], prior: List[Event], event: Event
    ) -> FrozenSet[Event]:
        if not self.por:
            return _EMPTY
        return frozenset(
            x for x in sleep.union(prior) if independent(x, event)
        )

    # -- DFS -------------------------------------------------------------

    def run(self, depth: int = 0, sleep: FrozenSet[Event] = _EMPTY) -> None:
        """Depth-first from the sim's current configuration, backtracking
        through an undo journal that ends with the call, even on a raise."""
        try:
            self._dfs(depth, sleep)
        finally:
            self.sim.drop_journal()

    def collect_frontier(self, cutoff: int) -> List[SearchNode]:
        """DFS-preorder roots at ``cutoff`` depth, leaves checked en route.

        The pool's seeding walk: :meth:`run` with a cutoff.  A node
        *at* the cutoff is snapshotted and returned instead of expanded
        (and not counted — the worker that expands it counts it).
        """
        self._cutoff = cutoff
        self._frontier = []
        self.run()
        return self._frontier

    def _dfs(self, depth: int, sleep: FrozenSet[Event]) -> None:
        r = self.result
        if not any_enabled(self.sim, self._events.acting):
            if not self._count_state():
                return
            if clients_done(self.sim, self.clients):
                self._check_leaf()
            return  # stuck without finishing: not a legal maximal run
        # digest first: the fingerprint finds (or pickles and interns)
        # the record of the process the entering event touched — the
        # cache key of its digest and of its next step — and a node the
        # seen-set, the claim set or a budget drops below is never marked
        fp = self._fingerprint()
        if self._covered(fp, sleep):
            r.states_deduped += 1
            return
        # remembered even when another worker owns it or it becomes a
        # subtree root, so a later revisit in this search dedups locally
        self._remember(fp, sleep)
        if depth >= self._cutoff:
            self._frontier.append(
                SearchNode(
                    self.sim.snapshot(), fp, tuple(self._trail), depth, sleep,
                    violations_before=len(r.violations),
                )
            )
            return
        if self._claimed_elsewhere(fp):
            r.states_deduped += 1
            return
        if not self._count_state():
            return
        if depth >= self.max_depth:
            r.truncated += 1
            return
        events = self._events.enabled(self.sim)
        explorable = (
            [e for e in events if e not in sleep] if self.por else events
        )
        # one mark per expanded node: every child branch applies one
        # event and undoes it back to this mark
        mark = self.sim.mark()
        prior: List[Event] = []
        for i, e in enumerate(explorable):
            child_sleep = self._child_sleep(sleep, prior, e)
            if (
                e.__class__ is Step
                and step_stutters(self.sim, e.pid)
                and self._covered(fp, child_sleep)
            ):
                # a stutter's configuration is this node's, so entering
                # it would make this very test and dedup: skip the work
                r.states_deduped += 1
                self.sim.counters.stutters += 1
                prior.append(e)
                continue
            e.apply(self.sim)
            self._trail.append(e)
            self._dfs(depth + 1, child_sleep)
            self._trail.pop()
            self.sim.restore(mark)
            prior.append(e)
            if self.abort:
                return
            if self.exhausted:
                r.truncated += len(explorable) - 1 - i  # cut siblings
                return


def run(
    system,
    *,
    checker: str = "causal",
    por: bool = False,
    workers: int = 1,
    max_depth: int = 40,
    max_states: int = 50_000,
    first_violation_only: bool = True,
) -> ExplorationResult:
    """Explore every schedule of ``system``'s current configuration.

    The caller has already invoked the scenario's transactions; the
    engine enumerates adversary schedules from here, depth first.
    ``por=True`` switches on sleep-set partial-order reduction.

    ``workers > 1`` fans out (see :mod:`repro.engine.parallel`) only
    for an exhaustive (``first_violation_only=False``) search of a
    protocol whose canonical fingerprint is a bisimulation (``por`` or
    ``info.por_safe``) — the one request shape where workers divide the
    work over a shared claim set instead of repeating it.  Every other
    ``workers > 1`` request runs the serial search below and is flagged
    ``auto_serial``: bit-equal to ``workers=1`` by construction.  In the
    pool ``max_states`` is a *global* budget — total ``states_visited``
    never exceeds it regardless of ``workers``.

    Every quiescent leaf's history is checked with ``checker``'s
    whole-history scan (see :func:`resolve_checker`).
    """
    check = resolve_checker(checker)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    result = ExplorationResult(
        protocol=system.info.name,
        por=por,
        workers=workers,
    )
    sim = system.sim
    pids = tuple(system.clients) + tuple(system.service_pids)
    if (
        workers > 1
        and not first_violation_only
        and (por or system.info.por_safe)
    ):
        from repro.engine.parallel import run_parallel

        return run_parallel(
            system,
            checker=check,
            por=por,
            workers=workers,
            max_depth=max_depth,
            max_states=max_states,
            result=result,
        )
    search = SerialSearch(
        sim,
        pids,
        system.clients,
        result,
        check,
        max_depth,
        max_states,
        first_violation_only,
        por,
    )
    search.run()
    result.auto_serial = workers > 1
    result.exhausted = search.exhausted
    result.steps = result.states_visited
    result.counters = replace(sim.counters)
    return result
