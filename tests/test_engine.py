"""The exploration engine's contracts: equivalence, reduction, soundness.

Three layers of evidence that :mod:`repro.engine` is a faithful — and
strictly cheaper — replacement for brute-force schedule enumeration:

* **Strategy equivalence** (per protocol): DFS, BFS and the parallel
  frontier explore the same reduced schedule space, so verdicts and the
  union of violating-history anomalies are identical.
* **POR equivalence + reduction** (full scope, slow): on the two seed
  scenarios the sleep-set/canonical-quotient search returns the same
  verdict and the same anomaly set as the unreduced DFS while expanding
  at least 2x fewer states — the acceptance gate for the reduction.
* **Independence soundness** (empirical diamond property): for sampled
  reachable configurations, every pair of enabled events the relation
  declares independent commutes — both orders land in the same
  canonical fingerprint with the same enabled sets.  This is the local
  condition the Mazurkiewicz-trace argument needs; checking it on real
  protocol states guards the hand-written relation against drift.
"""

import pytest

from repro.core.explore import explore_write_read_race
from repro.engine import ExplorationResult
from repro.protocols import REGISTRY

from helpers import result_key

#: every POR-safe protocol, with a depth that keeps the reduced search
#: exhaustive-or-cheap, and the expected write/read-race verdict
MATRIX = {
    "fastclaim": (26, True),
    "cops": (26, False),
    "cops_snow": (26, False),
    "cops_rw": (26, False),
    "eiger": (22, False),
    "ramp": (22, False),
    "ramp_small": (18, False),
    "occult": (18, False),
    "handshake": (26, True),
    "calvin": (26, False),
}


def anomaly_union(result: ExplorationResult):
    return frozenset(
        str(a) for _, anomalies in result.violations for a in anomalies
    )


def test_matrix_covers_every_por_safe_protocol():
    por_safe = {name for name, info in REGISTRY.items() if info.por_safe}
    assert por_safe == set(MATRIX)


@pytest.mark.parametrize("protocol", sorted(MATRIX))
def test_strategies_and_workers_agree(protocol):
    """DFS / BFS / workers=2 (all POR): same verdict, same anomaly set."""
    depth, expect_violation = MATRIX[protocol]
    arms = {
        key: explore_write_read_race(
            protocol,
            max_depth=depth,
            max_states=60_000,
            first_violation_only=False,
            por=True,
            **kw,
        )
        for key, kw in [
            ("dfs", {}),
            ("bfs", dict(strategy="bfs")),
            ("workers2", dict(workers=2)),
        ]
    }
    for key, r in arms.items():
        assert r.violation_found == expect_violation, (protocol, key)
        assert not r.exhausted, (protocol, key)
    assert (
        anomaly_union(arms["dfs"])
        == anomaly_union(arms["bfs"])
        == anomaly_union(arms["workers2"])
    )


#: the two seed scenarios of the POR acceptance gate, at full scope
#: (depth past quiescence, zero truncation — the verdict is exhaustive)
FULL_SCOPE = {"fastclaim": 18, "cops": 22}


@pytest.mark.slow
@pytest.mark.parametrize("protocol", sorted(FULL_SCOPE))
def test_por_identical_verdict_2x_fewer_states(protocol):
    depth = FULL_SCOPE[protocol]
    kw = dict(
        max_depth=depth, max_states=80_000, first_violation_only=False
    )
    plain = explore_write_read_race(protocol, **kw)
    reduced = explore_write_read_race(protocol, por=True, **kw)
    # both explorations cover the entire scope...
    for r in (plain, reduced):
        assert r.truncated == 0 and not r.exhausted
    # ...agree on the verdict and on *which* anomalies exist...
    assert plain.violation_found == reduced.violation_found
    assert anomaly_union(plain) == anomaly_union(reduced)
    # ...and the reduction pays: >= 2x fewer expanded configurations
    assert plain.states_visited >= 2 * reduced.states_visited, (
        plain.states_visited,
        reduced.states_visited,
    )


def test_workers_bit_identical_first_violation():
    """The parallel frontier reports the same first violation as serial."""
    kw = dict(max_depth=30, max_states=60_000, por=True)
    serial = explore_write_read_race("fastclaim", workers=1, **kw)
    fanned = explore_write_read_race("fastclaim", workers=2, **kw)
    assert serial.violation_found and fanned.violation_found
    s_sched, s_anoms = serial.violations[0]
    f_sched, f_anoms = fanned.violations[0]
    assert s_sched == f_sched
    assert [str(a) for a in s_anoms] == [str(a) for a in f_anoms]


def test_workers_auto_serial_on_tiny_scope():
    """A tiny scope answers a ``workers=2`` request serially.

    The POR-reduced fastclaim scope is ~128 states — far below the
    serial probe budget — so the parallel wrapper must skip the pool and
    return the serial result verbatim: same counts, same first
    violation, flagged ``auto_serial``.
    """
    kw = dict(max_depth=30, max_states=60_000, por=True)
    serial = explore_write_read_race("fastclaim", workers=1, **kw)
    fanned = explore_write_read_race("fastclaim", workers=2, **kw)
    assert fanned.auto_serial and not serial.auto_serial
    assert "(auto-serial)" in fanned.describe()
    assert (
        fanned.states_visited,
        fanned.states_deduped,
        fanned.schedules_completed,
        fanned.truncated,
    ) == (
        serial.states_visited,
        serial.states_deduped,
        serial.schedules_completed,
        serial.truncated,
    )
    assert fanned.violations == serial.violations


def test_workers_pool_path_forced(monkeypatch):
    """With the probe disabled the pool really runs — and still matches.

    Guards the pool machinery itself now that small scopes normally
    auto-serial: verdict and anomaly union must survive the fan-out,
    and the describe line reports the pool's own accounting.
    """
    from repro.engine import parallel

    monkeypatch.setattr(parallel, "SERIAL_PROBE_STATES", 0)
    kw = dict(
        max_depth=30, max_states=60_000, por=True, first_violation_only=False
    )
    serial = explore_write_read_race("fastclaim", workers=1, **kw)
    fanned = explore_write_read_race("fastclaim", workers=2, **kw)
    assert not fanned.auto_serial and fanned.roots_shipped > 0
    assert serial.violation_found and fanned.violation_found
    assert anomaly_union(fanned) == anomaly_union(serial)
    assert f"pool: {fanned.roots_shipped} roots shipped" in fanned.describe()


@pytest.mark.parametrize(
    "protocol,kw",
    [
        ("fastclaim", dict(first_violation_only=True, por=True)),
        ("fastclaim", dict(first_violation_only=True)),
        ("fastclaim", dict(strategy="bfs", por=True)),
        ("fastclaim", dict(strategy="random", max_states=2_000)),
        ("spanner", dict()),  # por_safe=False: no sound shared claim set
    ],
    ids=["first-violation+por", "first-violation", "bfs", "random", "not-por-safe"],
)
def test_workers_requests_answered_serially(monkeypatch, protocol, kw):
    """Only an exhaustive DFS of a POR-safe protocol fans out.

    Every other ``workers=2`` request takes the serial path — flagged
    ``auto_serial``, and equal to ``workers=1`` in every count and every
    violation trace (which is how the first-violation contract is kept).
    The probe is off, so the serial answer is the engine's routing and
    not the tiny-scope shortcut.
    """
    from repro.engine import parallel

    monkeypatch.setattr(parallel, "SERIAL_PROBE_STATES", 0)
    kw = {"max_depth": 14, "max_states": 20_000, "first_violation_only": False, **kw}
    serial = explore_write_read_race(protocol, workers=1, **kw)
    fanned = explore_write_read_race(protocol, workers=2, **kw)
    assert fanned.auto_serial and not serial.auto_serial
    assert fanned.roots_shipped == 0
    assert "(auto-serial)" in fanned.describe()
    assert result_key(fanned) == result_key(serial)


def test_workers_shared_quotient_deterministic(monkeypatch):
    """Exhaustive pool runs explore the shared canonical quotient.

    With the cross-worker claim set every canonical class is expanded
    exactly once pool-wide, so the merged counts are bit-identical run
    to run (no wall-clock dependence), never exceed the serial count,
    and the anomaly union matches serial exactly.  The seeding walk
    keys canonically too, so duplicate roots never even materialize.

    The guarantee is for *exhaustive* runs (``parallel.py`` excludes
    depth- and budget-truncated ones), so the scope must end naturally:
    the multi-object write racing a one-object read, which an unreduced
    serial DFS still finishes in under a second.
    """
    from repro.core.explore import explore
    from repro.core.setup import prepare_theorem_system
    from repro.engine import parallel
    from repro.txn.types import read_only_txn, write_only_txn

    monkeypatch.setattr(parallel, "SERIAL_PROBE_STATES", 0)

    def run(workers):
        tsys = prepare_theorem_system("fastclaim", n_probes=2)
        script = [
            (tsys.cw, write_only_txn(dict(tsys.new_values), txid="Tw")),
            (tsys.probes[0], read_only_txn(("X0",), txid="Tr")),
        ]
        return explore(
            tsys.system, script, max_depth=40, max_states=60_000,
            first_violation_only=False, workers=workers,
        )

    serial, fanned, again = run(1), run(2), run(2)
    assert not fanned.auto_serial
    assert serial.truncated == fanned.truncated == 0  # the scope is conclusive
    assert fanned.violation_found == serial.violation_found
    assert anomaly_union(fanned) == anomaly_union(serial)
    assert fanned.states_visited <= serial.states_visited
    assert fanned.shared_seen_hits > 0  # cross-worker dedup actually ran
    assert (
        fanned.states_visited,
        fanned.states_deduped,
        fanned.schedules_completed,
        fanned.truncated,
    ) == (
        again.states_visited,
        again.states_deduped,
        again.schedules_completed,
        again.truncated,
    )


def test_global_budget_caps_pool(monkeypatch):
    """``max_states`` is one pool-wide budget, not per worker.

    The canonical quotient of the full-scope fastclaim scenario is ~1.3k
    states, so a 600-state cap must bind: the pool stops at <= 600
    visits in total.
    """
    from repro.engine import parallel

    monkeypatch.setattr(parallel, "SERIAL_PROBE_STATES", 0)
    pooled = explore_write_read_race(
        "fastclaim", max_depth=18, max_states=600,
        first_violation_only=False, workers=2,
    )
    assert not pooled.auto_serial
    assert pooled.exhausted
    assert pooled.states_visited <= 600


@pytest.mark.parametrize("workers", [2, 4, 8])
def test_workers_skewed_load_equivalence(monkeypatch, workers):
    """Skewed load: the answer doesn't move with the pool width.

    The full-scope fastclaim race is heavily skewed — subtrees under the
    multi-object write dwarf the read-first subtrees — and nothing
    rebalances the task list: the shared claim set does, whoever reaches
    a class first expands it.  Under that load, at every pool width:
    identical verdict and anomaly union, pool-wide visits never above
    serial, and the first-violation arm reports the bit-identical serial
    trace.
    """
    from repro.engine import parallel

    monkeypatch.setattr(parallel, "SERIAL_PROBE_STATES", 0)
    kw = dict(max_depth=18, max_states=80_000, por=True)
    serial = explore_write_read_race(
        "fastclaim", first_violation_only=False, **kw
    )
    fanned = explore_write_read_race(
        "fastclaim", first_violation_only=False, workers=workers, **kw
    )
    assert not fanned.auto_serial
    assert fanned.violation_found == serial.violation_found
    assert anomaly_union(fanned) == anomaly_union(serial)
    assert fanned.states_visited <= serial.states_visited
    # first-violation arm: the bit-identical serial trace
    s_first = explore_write_read_race("fastclaim", **kw)
    f_first = explore_write_read_race("fastclaim", workers=workers, **kw)
    assert f_first.violations[0][0] == s_first.violations[0][0]
    assert [str(a) for a in f_first.violations[0][1]] == [
        str(a) for a in s_first.violations[0][1]
    ]


#: the pool's exact counts on the full-scope fastclaim race (canonical
#: closure, schedule-independent), and the roots each width ships
POOL_COUNTS = (1_300, 3_550, 36, 0)
POOL_ROOTS = {2: 10, 4: 18}


@pytest.mark.parametrize("workers", [2, 4, 8])
def test_workers_pool_exact_counts(monkeypatch, workers):
    """The pool's counts are pinned, at every width.

    Every canonical class is expanded exactly once pool-wide, so the
    totals do not depend on which worker got where first — any drift is
    a change to the search itself (the seeding walk and the workers run
    the same ``_dfs``).
    """
    from repro.engine import parallel

    monkeypatch.setattr(parallel, "SERIAL_PROBE_STATES", 0)
    kw = dict(max_depth=18, max_states=80_000, first_violation_only=False)
    fanned = explore_write_read_race("fastclaim", workers=workers, **kw)
    assert not fanned.auto_serial
    assert (
        fanned.states_visited,
        fanned.states_deduped,
        fanned.schedules_completed,
        fanned.truncated,
    ) == POOL_COUNTS
    if workers in POOL_ROOTS:
        assert fanned.roots_shipped == POOL_ROOTS[workers]
    serial = explore_write_read_race("fastclaim", por=True, **kw)
    assert anomaly_union(fanned) == anomaly_union(serial)
    c = fanned.counters
    assert (c.publishes, c.steals, c.idle_waits) == (0, 0, 0)


def _shm_entries():
    import os

    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


@pytest.mark.parametrize("how", ["sigkill", "raise"])
def test_worker_failure_is_loud_bounded_and_clean(monkeypatch, how):
    """A dead worker ends the run in ``PoolWorkerDied`` — fast, no leak.

    The first worker to start a subtree either SIGKILLs itself (no
    result is ever posted: the parent must notice the corpse) or raises
    (the worker ships its traceback).  Either way: the typed error, well
    inside 10 s, the other workers gone, and no shared-memory segment
    created during the run left behind.
    """
    import multiprocessing
    import os
    import signal
    import time

    from repro.engine import parallel
    from repro.engine.core import SerialSearch

    if parallel._mp_context().get_start_method() != "fork":
        pytest.skip("the patched hook reaches workers by fork inheritance")
    monkeypatch.setattr(parallel, "SERIAL_PROBE_STATES", 0)
    parent = os.getpid()
    tripped = multiprocessing.get_context("fork").Value("b", 0)
    real_run = SerialSearch.run

    def run(self, strategy, **kw):
        if os.getpid() != parent:
            with tripped.get_lock():
                first, tripped.value = not tripped.value, 1
            if first:
                if how == "sigkill":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("injected worker failure")
        return real_run(self, strategy, **kw)

    monkeypatch.setattr(SerialSearch, "run", run)
    before = _shm_entries()
    t0 = time.monotonic()
    with pytest.raises(parallel.PoolWorkerDied) as err:
        explore_write_read_race(
            "fastclaim", max_depth=18, max_states=80_000,
            first_violation_only=False, workers=2,
        )
    assert time.monotonic() - t0 < 10.0
    if how == "raise":
        assert "injected worker failure" in str(err.value)
    assert _shm_entries() <= before
    assert not multiprocessing.active_children()


def test_workers_merge_counters():
    r = explore_write_read_race(
        "cops", max_depth=26, max_states=60_000,
        first_violation_only=False, por=True, workers=2,
    )
    assert r.workers == 2
    assert r.counters is not None and r.counters.snapshots > 0


def test_por_refused_for_unsafe_protocols():
    """Synchronized-clock protocols branch on the global step counter;
    the registry says so and the wrapper refuses to reduce them."""
    unsafe = {name for name, info in REGISTRY.items() if not info.por_safe}
    assert "spanner" in unsafe and "wren" in unsafe
    for protocol in ("spanner", "wren"):
        with pytest.raises(ValueError, match="not declared POR-safe"):
            explore_write_read_race(protocol, max_depth=8, por=True)


def test_states_deduped_split():
    """Revisits are no longer folded into states_visited."""
    r = explore_write_read_race(
        "fastclaim", max_depth=18, max_states=80_000,
        first_violation_only=False,
    )
    assert r.states_deduped > 0
    assert r.steps == r.states_visited  # SearchOutcome vocabulary


@pytest.mark.parametrize("protocol", ["fastclaim", "cops"])
def test_independence_diamond_property(protocol):
    """Empirical soundness of the independence relation.

    Walk a fixed pseudo-random schedule; at each visited configuration,
    for every enabled pair declared independent, applying the two events
    in either order must reach the same canonical fingerprint and leave
    the same events enabled.
    """
    import random

    from repro.core.setup import prepare_theorem_system
    from repro.sim.events import enabled_events, independent
    from repro.txn.types import read_only_txn, write_only_txn

    tsys = prepare_theorem_system(protocol, n_probes=2)
    sim = tsys.system.sim
    if REGISTRY[protocol].supports_wtx:
        sim.invoke(tsys.cw, write_only_txn(dict(tsys.new_values), txid="Tw"))
    else:
        for i, (obj, val) in enumerate(sorted(tsys.new_values.items())):
            sim.invoke(tsys.cw, write_only_txn({obj: val}, txid=f"Tw{i}"))
    sim.invoke(tsys.probes[0], read_only_txn(tsys.objects, txid="Tr"))
    pids = (tsys.cw, tsys.probes[0]) + tuple(tsys.servers)

    rng = random.Random(7)
    checked = 0
    for _ in range(40):  # schedule prefix of 40 moves
        events = enabled_events(sim, pids)
        if not events:
            break
        here = sim.snapshot()
        for a in events:
            for b in events:
                if not independent(a, b):
                    continue
                sim.restore(here)
                a.apply(sim)
                b.apply(sim)
                fp_ab = sim.fingerprint(canonical=True)
                en_ab = set(enabled_events(sim, pids))
                sim.restore(here)
                b.apply(sim)
                a.apply(sim)
                assert sim.fingerprint(canonical=True) == fp_ab, (a, b)
                # as a *set*: enumeration order tracks msg_id numbering,
                # which is exactly what the canonical quotient masks
                assert set(enabled_events(sim, pids)) == en_ab, (a, b)
                checked += 1
        sim.restore(here)
        events[rng.randrange(len(events))].apply(sim)
    assert checked > 50  # the walk actually exercised the relation
