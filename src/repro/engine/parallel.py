"""The parallel frontier: subtree roots over a shared claim set.

Parallelising the explorer is only possible because of two invariants:
configuration snapshots are *self-contained* (a worker re-materializes
a private simulation from the shipped snapshot alone) and fingerprints
are *hash-seed-independent* (every worker computes the same 16 bytes
for the same configuration, so one cross-process seen-set is
meaningful).

There is one pool mode, reached by :func:`repro.engine.core.run` only
for an exhaustive DFS (``first_violation_only=False``) of a protocol
whose canonical fingerprint is a bisimulation (``por`` or
``por_safe``):

1. **Seeding walk.**  The parent runs the ordinary serial DFS truncated
   at a shallow cutoff and collects the DFS-preorder frontier.  That
   walk is also what keeps tiny scopes off the pool: one it finishes is
   the whole answer, and one that yields fewer than ``workers + 1``
   roots falls back to one full serial search
   (``result.auto_serial``).
2. **A fixed task list.**  Every root (delta snapshot + trail + depth)
   goes on one queue, followed by one sentinel per worker.  Workers
   block on ``get()``, run :class:`~repro.engine.core.SerialSearch`
   from each root they pull, and exit on a sentinel.  Nothing is ever
   put back: the load balancer is…
3. **The shared claim set** (:mod:`repro.engine.seenset`), an
   open-addressing table in ``multiprocessing.shared_memory`` every
   worker claims in before expanding.  A fingerprint is claimed exactly
   once pool-wide, so whoever reaches a class first expands it and a
   worker whose own root turns out small simply runs into territory
   nobody has claimed yet.
4. **Merge.**  Counts add; violations sort by ordinal (the root's
   DFS-preorder index, then discovery order within the root).

**The closure, not the sleep-set reduction.**  Cross-worker dedup keys
on the *canonical* fingerprint: the strict print excludes the
event/message counters, so two strict-equal states can diverge in
future fingerprint identity and a strict-keyed claim set would make the
explored region depend on which worker claimed first.  And the pool
explores the canonical **closure** — sleep sets off, every visit
claims — because a non-empty-sleep visit's coverage is not universal,
so it could neither claim nor trust the set.  The closure is sound
(every reachable canonical class is expanded exactly once, so every
quiescent class is still checked; sleep sets only ever prune redundant
interleavings) and its counts are schedule-independent: bit-identical
run to run and across ``workers``.  It generates more children than
the serial sleep-set search does, which is why the too-few-roots
fallback answers with the caller's own ``por`` setting.

**Budget.**  ``max_states`` is a *global* budget: workers draw chunks
from one shared counter, so ``workers=N`` never visits more than the
requested cap.  When the budget binds, *which* states were visited is
scheduling-dependent — the run is truncated either way (``exhausted``).

**Failure.**  A worker that raises, or dies without posting its result,
ends the run in :class:`PoolWorkerDied` within two polls of
:data:`RESULT_POLL_S`; the remaining workers are terminated and the
claim segment is unlinked either way.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue as queue_mod
import traceback
from dataclasses import replace
from typing import Callable

from repro.engine.core import ExplorationResult, SerialSearch
from repro.engine.seenset import SharedSeenSet
from repro.sim.executor import Simulation

#: target number of subtree roots per worker
ROOTS_PER_WORKER = 4

#: never seed deeper than this: each extra level multiplies seeding work
MAX_CUTOFF = 10

#: how long the parent waits on the result queue before checking that
#: every worker it still expects a result from is alive
RESULT_POLL_S = 1.0


class PoolWorkerDied(RuntimeError):
    """A pool worker raised, or exited without posting its result."""


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class GlobalBudget:
    """The shared ``max_states`` counter, drawn down in chunks.

    Workers take states in chunks of :data:`CHUNK` to keep the shared
    lock off the per-state hot path; unused chunk remainders are
    returned on worker exit, so the pool can undershoot the cap by at
    most ``workers × CHUNK`` in a truncated run and by nothing in an
    exhaustive one.  The pool's total ``states_visited`` can never
    *exceed* the cap: a state is only counted after a successful take.
    """

    CHUNK = 32

    def __init__(self, total: int, ctx):
        self._remaining = ctx.Value("q", max(total, 0))
        self._local = 0

    def take(self) -> bool:
        if self._local > 0:
            self._local -= 1
            return True
        with self._remaining.get_lock():
            grant = min(self.CHUNK, self._remaining.value)
            self._remaining.value -= grant
        if grant == 0:
            return False
        self._local = grant - 1
        return True

    def release_local(self) -> None:
        if self._local:
            with self._remaining.get_lock():
                self._remaining.value += self._local
            self._local = 0

    def __getstate__(self):
        return self._remaining

    def __setstate__(self, state):
        self._remaining = state
        self._local = 0


def _worker_main(
    worker_id: int,
    boot: dict,
    task_q,
    result_q,
    seen: SharedSeenSet,
    budget: GlobalBudget,
) -> None:
    """One worker: pull roots until a sentinel, post one result."""
    sim = Simulation([])
    sim.snapshot_mode = boot["snapshot_mode"]
    total = ExplorationResult(protocol=boot["protocol"])
    agg = {
        "worker": worker_id,
        "result": total,
        "violations": {},  # root ordinal -> its subtree's violations
        "exhausted": False,
        "error": None,
    }
    try:
        while True:
            task = task_q.get()
            if task is None:
                break
            ordinal, snapshot, depth, trail_prefix = pickle.loads(task)
            sim.restore(snapshot)
            result = ExplorationResult(protocol=boot["protocol"])
            search = SerialSearch(
                sim,
                boot["pids"],
                boot["clients"],
                result,
                boot["checker"],
                boot["max_depth"],
                boot["max_states"],
                first_violation_only=False,
                por=False,
                trail_prefix=trail_prefix,
                canonical_keys=True,
                seen=seen,
                budget=budget,
            )
            search.run(depth=depth)
            _add_counts(total, result)
            agg["exhausted"] = agg["exhausted"] or search.exhausted
            if result.violations:
                agg["violations"][ordinal] = result.violations
    except BaseException as exc:  # ship the failure; the parent raises
        agg["error"] = f"{exc!r}\n{traceback.format_exc()}"
        raise
    finally:
        budget.release_local()
        agg["counters"] = replace(sim.counters)
        # plain put: process exit joins the queue's feeder thread, so
        # the result is in the pipe before the parent can see us dead
        result_q.put(pickle.dumps(agg))


def run_parallel(
    system,
    *,
    checker: Callable,
    por: bool,
    workers: int,
    max_depth: int,
    max_states: int,
    result: ExplorationResult,
) -> ExplorationResult:
    """Exhaustive DFS of ``system`` with a pool of ``workers``.

    The caller (:func:`repro.engine.core.run`) has established that the
    canonical fingerprint is a bisimulation for this protocol; ``por``
    is the caller's own setting and only steers the serial answer of
    the too-few-roots fallback.  ``checker`` is the whole-history scan
    run at every quiescent leaf (a module-level function, so a spawned
    worker unpickles it by name).
    """
    sim = system.sim
    pids = tuple(system.clients) + tuple(system.service_pids)
    clients = tuple(system.clients)
    root_snap = sim.snapshot()
    target = max(workers * ROOTS_PER_WORKER, workers + 1)

    def _search(serial: bool) -> SerialSearch:
        """A fresh search at the root: the caller's own serial one, or
        the pool's (canonical keys, no sleep sets)."""
        sim.restore(root_snap)
        partial = ExplorationResult(
            protocol=result.protocol, por=por, workers=workers
        )
        return SerialSearch(
            sim,
            pids,
            clients,
            partial,
            checker,
            max_depth,
            max_states,
            first_violation_only=False,
            por=por and serial,
            canonical_keys=not serial,
        )

    # grow the cutoff until the frontier is wide enough to balance the
    # pool; each pass restarts from the root (shallow passes are cheap)
    for cutoff in range(1, max(1, min(max_depth, MAX_CUTOFF)) + 1):
        seeding = _search(False)
        roots = seeding.collect_frontier(cutoff)
        if seeding.exhausted or not roots or len(roots) >= target:
            break
    if seeding.exhausted or not roots:
        # the seeding walk already settled it (budget spent, or the
        # whole scope is shallower than the cutoff): the parent's
        # serial prefix is the complete answer
        _finalize(result, seeding, sim)
        return result
    if len(roots) < workers + 1:
        # not enough subtrees to keep the pool busy: one serial run is
        # cheaper than spinning up workers that would mostly idle
        serial = _search(True)
        serial.run()
        _finalize(result, serial, sim)
        result.auto_serial = True
        return result

    partial = seeding.result
    ctx = _mp_context()
    budget = GlobalBudget(max_states - partial.states_visited, ctx)
    task_q = ctx.Queue()
    result_q = ctx.Queue()
    boot = {
        "pids": pids,
        "clients": clients,
        "checker": checker,
        "max_depth": max_depth,
        "max_states": max_states,
        "protocol": result.protocol,
        # explicit, not inherited: under a spawn start method the
        # class-level mode would reset to the default, and a
        # deepcopy-oracle run would silently explore its subtrees on
        # the bytes path
        "snapshot_mode": sim.snapshot_mode,
    }
    # the expansion population is bounded by the state budget
    seen = SharedSeenSet(max_states, ctx=ctx)
    procs = []
    found = {}  # root ordinal -> its subtree's violations
    try:
        # parent-side claims: every seeding-walk expansion — minus the
        # roots themselves, whose subtrees are *not* explored yet and
        # must be claimed by the worker that expands them
        root_fps = {node.fingerprint for node in roots}
        for fp in seeding.seen_fingerprints():
            if fp not in root_fps:
                seen.claim(fp)
        for worker_id in range(workers):
            p = ctx.Process(
                target=_worker_main,
                args=(worker_id, boot, task_q, result_q, seen, budget),
                daemon=True,
            )
            p.start()
            procs.append(p)
        # the whole task list up front, then one sentinel per worker:
        # nothing is ever added, so a blocking get() cannot starve.
        # Pickled here rather than by the queue's feeder thread, which
        # would print a pickling error and drop the root.
        for ordinal, node in enumerate(roots):
            labels = tuple(e.label for e in node.trail)
            task_q.put(pickle.dumps((ordinal, node.snapshot, node.depth, labels)))
        for _ in range(workers):
            task_q.put(None)
        pending = dict(enumerate(procs))
        while pending:
            agg = _next_result(result_q, pending.values())
            if agg["error"]:
                raise PoolWorkerDied(f"parallel worker failed:\n{agg['error']}")
            del pending[agg["worker"]]
            _add_counts(partial, agg["result"])
            found.update(agg["violations"])
            seeding.exhausted = seeding.exhausted or agg["exhausted"]
            sim.counters.merge(agg["counters"])
        for p in procs:  # every result is in: the exits are imminent
            p.join(timeout=10.0)
    finally:
        for p in procs:
            if p.is_alive():
                p.terminate()
            p.join()
        task_q.cancel_join_thread()
        result_q.cancel_join_thread()
        seen.unlink()

    # the deterministic merge: DFS preorder is ordinal order.  A
    # violation the seeding walk found precedes every root it collected
    # afterwards; a root's own violations keep their discovery order.
    seeded, merged, done = partial.violations, [], 0
    for ordinal, node in enumerate(roots):
        merged += seeded[done : node.violations_before]
        done = node.violations_before
        merged += found.get(ordinal, ())
    partial.violations = merged + seeded[done:]

    _finalize(result, seeding, sim)
    result.roots_shipped = len(roots)
    result.shared_seen_hits = sim.counters.shared_seen_hits
    return result


def _next_result(result_q, pending) -> dict:
    """The next worker result, or :class:`PoolWorkerDied`.

    A worker's result is in the pipe before its process exits, so a
    worker that was already dead *before* a poll that then comes back
    empty never posted one.
    """
    while True:
        dead = [p for p in pending if not p.is_alive()]
        try:
            return pickle.loads(result_q.get(timeout=RESULT_POLL_S))
        except queue_mod.Empty:
            if dead:
                raise PoolWorkerDied(
                    f"parallel worker {dead[0].name} exited with code "
                    f"{dead[0].exitcode} without posting its result"
                ) from None


def _add_counts(total: ExplorationResult, part: ExplorationResult) -> None:
    total.states_visited += part.states_visited
    total.states_deduped += part.states_deduped
    total.schedules_completed += part.schedules_completed
    total.truncated += part.truncated
    total.checker_seconds += part.checker_seconds
    total.checker_runs += part.checker_runs


def _finalize(
    result: ExplorationResult, search: SerialSearch, sim: Simulation
) -> None:
    partial = search.result
    result.states_visited = partial.states_visited
    result.states_deduped = partial.states_deduped
    result.schedules_completed = partial.schedules_completed
    result.truncated = partial.truncated
    result.checker_seconds = partial.checker_seconds
    result.checker_runs = partial.checker_runs
    result.violations = partial.violations
    result.exhausted = search.exhausted
    result.steps = result.states_visited
    result.counters = replace(sim.counters)
