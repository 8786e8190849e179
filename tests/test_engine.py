"""The exploration engine's contracts: equivalence, reduction, soundness.

Three layers of evidence that :mod:`repro.engine` is a faithful — and
strictly cheaper — replacement for brute-force schedule enumeration:

* **Serial/workers equivalence** (per protocol): the serial DFS and the
  parallel frontier explore the same reduced schedule space, so verdicts
  and the union of violating-history anomalies are identical.
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
def test_serial_and_workers_agree(protocol):
    """DFS / workers=2 (both POR): same verdict, same anomaly set."""
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
            ("workers2", dict(workers=2)),
        ]
    }
    for key, r in arms.items():
        assert r.violation_found == expect_violation, (protocol, key)
        assert not r.exhausted, (protocol, key)
    assert anomaly_union(arms["dfs"]) == anomaly_union(arms["workers2"])


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
    """A first-violation ``workers=2`` request is answered serially.

    ``first_violation_only`` (the default) is not a request shape the
    pool takes, so :func:`repro.engine.core.run` routes it to the serial
    search and returns that result verbatim: same counts, same first
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


def test_workers_pool_path_forced():
    """An exhaustive request really runs the pool — and still matches.

    Guards the pool machinery itself on a small scope: verdict and
    anomaly union must survive the fan-out, and the describe line
    reports the pool's own accounting.
    """
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
        ("spanner", dict()),  # por_safe=False: no sound shared claim set
    ],
    ids=["first-violation+por", "first-violation", "not-por-safe"],
)
def test_workers_requests_answered_serially(protocol, kw):
    """Only an exhaustive DFS of a POR-safe protocol fans out.

    Every other ``workers=2`` request takes the serial path — flagged
    ``auto_serial``, and equal to ``workers=1`` in every count and every
    violation trace (which is how the first-violation contract is kept).
    """
    kw = {"max_depth": 14, "max_states": 20_000, "first_violation_only": False, **kw}
    serial = explore_write_read_race(protocol, workers=1, **kw)
    fanned = explore_write_read_race(protocol, workers=2, **kw)
    assert fanned.auto_serial and not serial.auto_serial
    assert fanned.roots_shipped == 0
    assert "(auto-serial)" in fanned.describe()
    assert result_key(fanned) == result_key(serial)


def test_workers_shared_quotient_deterministic():
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
    from repro.txn.types import read_only_txn, write_only_txn

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


def test_global_budget_caps_pool():
    """``max_states`` is one pool-wide budget, not per worker.

    The canonical quotient of the full-scope fastclaim scenario is ~1.3k
    states, so a 600-state cap must bind: the pool stops at <= 600
    visits in total.
    """
    pooled = explore_write_read_race(
        "fastclaim", max_depth=18, max_states=600,
        first_violation_only=False, workers=2,
    )
    assert not pooled.auto_serial
    assert pooled.exhausted
    assert pooled.states_visited <= 600


@pytest.mark.parametrize("workers", [2, 4, 8])
def test_workers_skewed_load_equivalence(workers):
    """Skewed load: the answer doesn't move with the pool width.

    The full-scope fastclaim race is heavily skewed — subtrees under the
    multi-object write dwarf the read-first subtrees — and nothing
    rebalances the task list: the shared claim set does, whoever reaches
    a class first expands it.  Under that load, at every pool width:
    identical verdict and anomaly union, pool-wide visits never above
    serial, and the first-violation arm reports the bit-identical serial
    trace.
    """
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
def test_workers_pool_exact_counts(workers):
    """The pool's counts are pinned, at every width.

    Every canonical class is expanded exactly once pool-wide, so the
    totals do not depend on which worker got where first — any drift is
    a change to the search itself (the seeding walk and the workers run
    the same ``_dfs``).
    """
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


def race_explored(protocol, n=2, **kw):
    """Exhaustively explore the theorem's writes racing one ROT over
    ``n`` objects; the result plus the snapshot / restore / fingerprint
    calls and the stutters skipped that the exploration itself made
    (the scenario's setup excluded)."""
    from repro.core.explore import explore
    from repro.core.setup import prepare_theorem_system

    objects = tuple(f"X{i}" for i in range(n))
    tsys = prepare_theorem_system(protocol, objects=objects, n_servers=n, n_probes=2)
    script = tsys.race_script()
    before = tsys.sim.counters.as_dict()
    r = explore(tsys.system, script, first_violation_only=False, **kw)
    after = r.counters.as_dict()
    keys = ("snapshots", "restores", "fingerprints", "stutters")
    return r, {k: after[k] - before[k] for k in keys}


def test_pool_explores_nothing_twice():
    """Every fingerprint the pool computes is a state it keeps or dedups.

    COPS on 3 objects is 5 328 closure states — a scope the pool takes
    because of its size.  Pool-wide, the only configurations digested
    more than once are the shallow ones: each subtree root again by the
    worker that pulls it, and the nodes above the cutoff once per
    seeding pass.  (Quiescent leaves are counted but never digested,
    so the difference may be negative.)  A stutter child is deduped
    without being digested, so it counts as the fingerprint it stands
    for.  A serial search run first and thrown away would show up here
    as thousands of surplus fingerprints.
    """
    kw = dict(por=True, max_depth=60, max_states=60_000)
    two, cost = race_explored("cops", 3, workers=2, **kw)
    four, _ = race_explored("cops", 3, workers=4, **kw)
    assert not two.auto_serial and two.roots_shipped > 0
    assert result_key(two)[:4] == result_key(four)[:4] == (5_328, 14_437, 88, 0)
    assert anomaly_union(two) == anomaly_union(four) == frozenset()
    printed = cost["fingerprints"] + cost["stutters"]
    surplus = printed - (two.states_visited + two.states_deduped)
    assert surplus <= 4 * two.roots_shipped, (surplus, two.roots_shipped)


@pytest.mark.parametrize("mode", ["bytes", "deepcopy"])
@pytest.mark.parametrize(
    "protocol,kw,fingerprints",
    [
        ("fastclaim", dict(max_depth=18, max_states=600), 1_149),
        ("cops", dict(max_depth=30, max_states=60_000, por=True), 674),
    ],
    ids=["strict", "por"],
)
def test_capture_follows_the_seen_set(mode, protocol, kw, fingerprints):
    """A configuration is captured only once the search has kept it.

    Every generated child is digested, or is a stutter decided from
    its parent's print (the pinned sums are the fingerprint counts the
    capture-first engine made on the same scopes).  The bytes DFS
    backtracks by undoing the child's one event and captures nothing;
    the deepcopy oracle's mark is a snapshot, taken only for a node
    that survives the seen-set, the state budget and the depth bound —
    at most one capture per visited state.
    """
    from repro.sim.executor import use_snapshot_mode

    with use_snapshot_mode(mode):
        r, cost = race_explored(protocol, **kw)
    assert r.states_deduped > 0
    assert cost["fingerprints"] + cost["stutters"] == fingerprints
    if mode == "bytes":
        assert cost["snapshots"] == 0
    else:
        assert 0 < cost["snapshots"] <= r.states_visited


def explored_twice(monkeypatch, *args, **kw):
    """``race_explored`` with the stutter skip, then without it:
    ``ClientBase.stutters`` patched to answer False, so every stutter
    child is taken and deduped when entered."""
    from repro.txn.client import ClientBase

    skipped = race_explored(*args, **kw)
    with monkeypatch.context() as m:
        m.setattr(ClientBase, "stutters", lambda self: False)
        taken = race_explored(*args, **kw)
    return skipped, taken


def assert_skip_moves_no_count(skipped, taken):
    """Everything the search promises is equal; each skipped stutter
    is one fingerprint and one restore fewer."""
    (r, cost), (t, t_cost) = skipped, taken
    assert result_key(r) == result_key(t)
    assert (r.checks, r.roots_shipped) == (t.checks, t.roots_shipped)
    assert t_cost["stutters"] == 0 < cost["stutters"]
    assert cost["fingerprints"] + cost["stutters"] == t_cost["fingerprints"]
    assert cost["restores"] + cost["stutters"] == t_cost["restores"]


@pytest.mark.parametrize("scope", ["budget", "exhaustive"])
@pytest.mark.parametrize("por", [False, True], ids=["strict", "por"])
@pytest.mark.parametrize("protocol", ["fastclaim", "cops"])
def test_the_stutter_skip_moves_no_count(monkeypatch, protocol, por, scope):
    """A state budget cuts both arms at the same node; without one the
    strict arm is bounded by depth alone (at 30 it is 46 222 states)."""
    exhaustive = scope == "exhaustive"
    kw = dict(por=por, max_depth=12 if exhaustive and not por else 30)
    kw["max_states"] = 200_000 if exhaustive else 300 if por else 1_000
    skipped, taken = explored_twice(monkeypatch, protocol, **kw)
    assert skipped[0].exhausted == (not exhaustive)
    assert_skip_moves_no_count(skipped, taken)


def test_the_stutter_skip_moves_no_pool_count(monkeypatch):
    kw = dict(por=True, max_depth=60, max_states=60_000, workers=2)
    skipped, taken = explored_twice(monkeypatch, "cops", 3, **kw)
    assert not skipped[0].auto_serial
    assert_skip_moves_no_count(skipped, taken)


def explore_from_a_waiting_reader(sleep_on_reply, max_depth):
    """A POR DFS entered where the reader waits for a reply that is in
    transit, optionally sleeping on that reply's delivery; the result,
    the stutter steps it took and the ones it skipped."""
    from repro.core.setup import prepare_theorem_system
    from repro.engine.core import SerialSearch, resolve_checker
    from repro.sim.events import Deliver, Step, enabled_events
    from repro.sim.trace import StepEvent
    from repro.txn.types import read_only_txn

    tsys = prepare_theorem_system("fastclaim", n_probes=2)
    sim, reader, system = tsys.sim, tsys.probes[0], tsys.system
    pids = tuple(system.clients) + tuple(system.service_pids)
    sim.invoke(tsys.cw, tsys.tw())
    sim.invoke(reader, read_only_txn(tsys.objects, txid="Tr"))

    def deliver_to(dst):
        (event,) = [
            e for e in enabled_events(sim, pids)
            if isinstance(e, Deliver) and e.dst == dst
        ]
        return event

    Step(reader).apply(sim)  # the read requests go out
    server = tsys.servers[0]
    deliver_to(server).apply(sim)
    Step(server).apply(sim)  # its reply is in transit to the reader
    reply = deliver_to(reader)
    assert sim.processes[reader].current is not None  # the reader waits
    result = ExplorationResult(protocol="fastclaim", por=True)
    search = SerialSearch(
        sim, pids, system.clients, result, resolve_checker("causal"),
        max_depth, max_states=60_000, first_violation_only=False, por=True,
    )
    with sim.recording() as events:
        search.run(sleep=frozenset({reply}) if sleep_on_reply else frozenset())
    taken = sum(  # a fastclaim client's step that moves nothing stutters
        isinstance(e, StepEvent) and e.pid in system.clients
        and not (e.received or e.sent)
        for e in events
    )
    return result, taken, sim.counters.stutters


def test_an_uncovered_stutter_is_taken(monkeypatch):
    """Under POR a stutter is skipped only when its parent's print
    covers the child's sleep set.  At a node that sleeps on the reply a
    waiting reader needs, the reader's stutter child no longer sleeps on
    it (the two are dependent): it is not covered, so it is taken, as
    without the skip.  One level deep that is the root's own child; in
    the whole subtree such stutters recur, and no count moves."""
    from repro.txn.client import ClientBase

    assert explore_from_a_waiting_reader(True, max_depth=1)[1:] == (1, 0)
    assert explore_from_a_waiting_reader(False, max_depth=1)[1:] == (0, 1)
    r, taken, skipped = explore_from_a_waiting_reader(True, max_depth=30)
    with monkeypatch.context() as m:
        m.setattr(ClientBase, "stutters", lambda self: False)
        r_off, taken_off, skipped_off = explore_from_a_waiting_reader(True, 30)
    assert result_key(r) == result_key(r_off) and r.checks == r_off.checks
    assert skipped_off == 0 < skipped and taken_off == taken + skipped


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
    parent = os.getpid()
    tripped = multiprocessing.get_context("fork").Value("b", 0)
    real_run = SerialSearch.run

    def run(self, **kw):
        if os.getpid() != parent:
            with tripped.get_lock():
                first, tripped.value = not tripped.value, 1
            if first:
                if how == "sigkill":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("injected worker failure")
        return real_run(self, **kw)

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

    tsys = prepare_theorem_system(protocol, n_probes=2)
    sim = tsys.system.sim
    for client, txn in tsys.race_script():
        sim.invoke(client, txn)
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


def _forgetful():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_smoke.py"
    spec = importlib.util.spec_from_file_location("bench_smoke", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Forgetful


#: the leaf-memo scopes: every POR-safe protocol's race scope under POR,
#: and fastclaim's ``dfs_strict`` scope (strict keys, depth 18), each at
#: a small budget
MEMO_SCOPES = [(p, dict(por=True, max_depth=26)) for p in sorted(MATRIX)] + [
    ("fastclaim", dict(por=False, max_depth=18))
]


@pytest.mark.parametrize("checker", ["causal", "read-atomic", "sessions"])
def test_the_leaf_memo_moves_no_verdict(monkeypatch, checker):
    """One scan per distinct leaf history gives what a scan of every
    leaf gives: the same violating trails and anomalies, the same
    schedules and the same anomaly union, on every scope."""
    from repro.engine.core import SerialSearch

    kw = dict(checker=checker, max_states=600, first_violation_only=False)
    memo = [explore_write_read_race(p, **scope, **kw) for p, scope in MEMO_SCOPES]
    real, forgetful = SerialSearch.__init__, _forgetful()

    def init(self, *args, **kwargs):
        real(self, *args, **kwargs)
        self._verdicts = forgetful()

    monkeypatch.setattr(SerialSearch, "__init__", init)
    scans = [explore_write_read_race(p, **scope, **kw) for p, scope in MEMO_SCOPES]
    for (protocol, _), m, s in zip(MEMO_SCOPES, memo, scans):
        assert result_key(m) == result_key(s), protocol
        assert anomaly_union(m) == anomaly_union(s), protocol
        assert s.checker_runs == s.schedules_completed, protocol
        assert m.checker_runs <= m.schedules_completed, protocol
    assert 0 < sum(m.checker_runs for m in memo) < sum(s.checker_runs for s in scans)
