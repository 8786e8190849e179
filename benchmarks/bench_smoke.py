"""A one-minute perf-regression smoke for the state-space engines.

Runs canonical model-checker workloads across the engine's knobs
(partial-order reduction, parallel workers) on the fast (bytes)
snapshot path and checks the exploration *counts* against the
committed baseline: the state partition is a pure function of protocol
state values (strict fingerprints) or of their trace-canonical quotient
(POR fingerprints), so ``states_visited`` / ``states_deduped`` /
``schedules_completed`` are exact, machine-independent invariants — any
drift means the fork/fingerprint/reduction machinery changed behaviour,
not just speed.  Wall-clock time and the SimCounters cost ledger are
printed for eyeballing but never asserted (they are machine-dependent).

Run via ``make bench-smoke`` (which pins ``PYTHONHASHSEED`` — the counts
no longer depend on it, but a pinned seed keeps any future regression
deterministic to reproduce) or directly::

    python benchmarks/bench_smoke.py
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.explore import explore_write_read_race  # noqa: E402

#: label -> (protocol, engine kwargs, exact expected counts)
BASELINES = {
    "fastclaim dfs": (
        "fastclaim",
        dict(max_depth=30, max_states=60_000),
        dict(states_visited=437, states_deduped=456,
             schedules_completed=79, violations=1, truncated=0),
    ),
    "fastclaim dfs+por": (
        "fastclaim",
        dict(max_depth=30, max_states=60_000, por=True),
        dict(states_visited=128, states_deduped=50,
             schedules_completed=4, violations=1, truncated=0),
    ),
    # a first-violation workers=2 request is routed to the serial search
    # (auto_serial) and must reproduce the workers=1 counts exactly
    "fastclaim dfs+por+w2": (
        "fastclaim",
        dict(max_depth=30, max_states=60_000, por=True, workers=2),
        dict(states_visited=128, states_deduped=50,
             schedules_completed=4, violations=1, truncated=0),
    ),
    "fastclaim dfs+por exhaustive": (
        "fastclaim",
        dict(max_depth=30, max_states=60_000, por=True,
             first_violation_only=False),
        dict(states_visited=1_416, states_deduped=554,
             schedules_completed=24, violations=12, truncated=0),
    ),
    "cops dfs (budget)": (
        "cops",
        dict(max_depth=22, max_states=6_000),
        dict(states_visited=6_001, states_deduped=6_288,
             schedules_completed=1_021, violations=0, truncated=28),
    ),
    "cops dfs+por": (
        "cops",
        dict(max_depth=22, max_states=6_000, por=True),
        dict(states_visited=515, states_deduped=174,
             schedules_completed=15, violations=0, truncated=0),
    ),
}


def fork_machinery_smoke() -> bool:
    """Snapshot/fork/restore semantics, the state table's interning and,
    under a journal, the process rows."""
    from repro.core.setup import prepare_theorem_system
    from repro.sim.scheduler import RoundRobinScheduler

    tsys = prepare_theorem_system("wren")
    sim = tsys.sim
    sim.invoke(tsys.cw, tsys.tw())
    sched = RoundRobinScheduler()
    for _ in range(6):
        sched.tick(sim, pids=(tsys.cw,) + tuple(tsys.servers))
    snap = sim.snapshot()
    fp = sim.fingerprint()
    fork = snap.fork()  # O(1) fork: shares the per-component captures
    ok = fork.proc_blobs is snap.proc_blobs and fork.net_state is snap.net_state
    interned = sim.counters.states_interned
    # unchanged state: every process is pickled again (outside a journal
    # nothing is cached about a process) and interns to the same bytes
    snap2 = sim.snapshot()
    ok &= all(
        b2 is b1
        for (_, b1), (_, b2) in zip(snap.proc_blobs, snap2.proc_blobs)
    )
    # the network is captured afresh by every snapshot, to an equal capture
    ok &= snap2.net_state == snap.net_state
    ok &= sim.counters.states_interned == interned
    sim.mark()  # under a journal the rows serve a repeated capture
    sim.snapshot()
    sim.snapshot()
    ok &= sim.counters.bytes_reused > 0
    sim.drop_journal()
    for _ in range(6):
        sched.tick(sim, pids=(tsys.cw,) + tuple(tsys.servers))
    sim.restore(snap)
    ok &= sim.fingerprint() == fp and sim.counters.bytes_restored > 0
    print(("ok  " if ok else "FAIL") + f" fork machinery: {sim.counters.describe()}")
    return ok


def undo_smoke() -> bool:
    """The serial bytes DFS backtracks by undo, never by capture.

    Every child the DFS generates is one applied event (one trace
    record) and is left again by one ``restore`` of its parent's mark,
    so ``restores`` must equal the children and ``snapshots`` stay 0.
    A fallback to capture plus restore shows as snapshots > 0.
    Covers a budget-truncated run and a first-violation abort.
    """
    from repro.core.setup import prepare_theorem_system
    from repro.engine import run

    ok = True
    for label, kwargs in (
        ("budget", dict(max_depth=30, max_states=300, first_violation_only=False)),
        ("first violation", dict(max_depth=30, max_states=60_000, por=True)),
    ):
        tsys = prepare_theorem_system("fastclaim", n_probes=2)
        sim = tsys.sim
        for client, txn in tsys.race_script():
            sim.invoke(client, txn)
        before, events = sim.counters.as_dict(), sim.events_applied
        run(tsys.system, **kwargs)
        children = sim.events_applied - events
        snapshots = sim.counters.snapshots - before["snapshots"]
        restores = sim.counters.restores - before["restores"]
        good = snapshots == 0 and restores == children > 0
        ok &= good
        print(
            f"{'ok  ' if good else 'FAIL'} undo, fastclaim {label}: {children} "
            f"children, {restores} restores, {snapshots} snapshots (want 0)"
        )
    return ok


def fold_smoke() -> bool:
    """Every incremental fingerprint against the from-scratch oracle.

    The bytes fingerprint re-encodes only the placement slots the
    network recorded as written; the deepcopy oracle encodes the whole
    live state on every call.  Over the fastclaim budget DFS (strict
    keying) and the POR exhaustive DFS (canonical keying), each
    fingerprint must byte-equal the oracle's digest of the same state.
    """
    from repro.sim.executor import Simulation
    from repro.sim.snapshot import DeepCopySnapshotter

    oracle, real = DeepCopySnapshotter(), Simulation.fingerprint
    checked = [0]

    def cross_checked(self, *, canonical=False):
        fp = real(self, canonical=canonical)
        if fp != oracle.digest(self.processes, self.network, canonical):
            raise AssertionError(f"fingerprint #{checked[0]} differs from the oracle's")
        checked[0] += 1
        return fp

    Simulation.fingerprint = cross_checked
    try:
        for label, kwargs in (
            ("budget", dict(max_depth=30, max_states=300, first_violation_only=False)),
            ("por exhaustive", BASELINES["fastclaim dfs+por exhaustive"][1]),
        ):
            before = checked[0]
            explore_write_read_race("fastclaim", **kwargs)
            print(f"ok   fold, fastclaim {label}: {checked[0] - before} "
                  "fingerprints byte-equal the oracle's")
    except AssertionError as exc:
        print(f"FAIL fold, fastclaim {label}: {exc}")
        return False
    finally:
        Simulation.fingerprint = real
    return True


def exact_key(r):
    """Every count, trail and anomaly an exploration promises exactly."""
    return (r.states_visited, r.states_deduped, r.schedules_completed,
            r.truncated, r.checks,
            [(t, [str(a) for a in anomalies]) for t, anomalies in r.violations])


class Forgetful(dict):
    """A transition table that never records: every step runs ``on_step``."""

    def __setitem__(self, key, value):
        pass


def interned_drift(sim) -> int:
    """Interned objects (every live one a state-table record pins, which
    an undo or the transition table may place) whose state is no longer
    their record's: each is a shared state changed in place.  States
    are compared by value digest: a fresh load of a blob may share its
    strings differently from the object first pickled into it."""
    import pickle

    from repro.sim.snapshot import _state_digest

    drift = 0
    for rec in sim._snapshotters["bytes"]._states.values():
        obj = rec[3] and rec[3]()
        if obj is not None:
            drift += _state_digest(obj, False) != _state_digest(pickle.loads(rec[0]), False)
    return drift


def stutter_smoke() -> bool:
    """A waiting client's no-op step is decided from the seen-set.

    The fastclaim budget DFS (strict keying) and POR exhaustive DFS
    (canonical keying) run with the skip and with ``ClientBase.stutters``
    answering False, which takes every stutter.  Every exact count must
    be equal, some step must have been decided untaken, and each one
    must be one fingerprint and one restore fewer.
    """
    from repro.txn.client import ClientBase

    real, ok = ClientBase.stutters, True
    for label, kwargs in (
        ("budget", dict(max_depth=30, max_states=300, first_violation_only=False)),
        ("por exhaustive", BASELINES["fastclaim dfs+por exhaustive"][1]),
    ):
        skipped = explore_write_read_race("fastclaim", **kwargs)
        ClientBase.stutters = lambda self: False
        try:
            taken = explore_write_read_race("fastclaim", **kwargs)
        finally:
            ClientBase.stutters = real
        s, t = skipped.counters, taken.counters
        good = (
            exact_key(skipped) == exact_key(taken)
            and s.stutters > 0 == t.stutters
            and s.fingerprints + s.stutters == t.fingerprints
            and s.restores + s.stutters == t.restores
        )
        ok &= good
        print(
            f"{'ok  ' if good else 'FAIL'} stutter, fastclaim {label}: "
            f"{s.stutters} steps decided untaken; {s.fingerprints} fingerprints "
            f"/ {s.restores} restores against {t.fingerprints} / {t.restores}"
        )
    return ok


def reuse_smoke() -> bool:
    """A step taken before is replayed from the transition table.

    The fastclaim budget DFS (strict keying) and POR exhaustive DFS
    (canonical keying) run with the table and with one that never
    records, so every step runs ``on_step``.  Every exact count, the
    fingerprints and the restores must be equal, some step must have
    been replayed, and every interned object the table would hand out
    must still hold its record's state (none was changed in place).
    """
    from repro.core.setup import prepare_theorem_system
    from repro.engine import run

    def explore_once(kwargs, table):
        tsys = prepare_theorem_system("fastclaim", n_probes=2)
        sim = tsys.sim
        if not table:
            sim._snapshotters["bytes"]._transitions = Forgetful()
        for client, txn in tsys.race_script():
            sim.invoke(client, txn)
        return run(tsys.system, **kwargs), interned_drift(sim)

    ok = True
    for label, kwargs in (
        ("budget", dict(max_depth=30, max_states=300, first_violation_only=False)),
        ("por exhaustive", BASELINES["fastclaim dfs+por exhaustive"][1]),
    ):
        (on, drift_on), (off, drift_off) = explore_once(kwargs, True), explore_once(kwargs, False)
        a, b = on.counters, off.counters
        good = (
            exact_key(on) == exact_key(off)
            and (a.fingerprints, a.restores) == (b.fingerprints, b.restores)
            and a.steps_reused > 0 == b.steps_reused
            and drift_on == drift_off == 0
        )
        ok &= good
        print(
            f"{'ok  ' if good else 'FAIL'} reuse, fastclaim {label}: "
            f"{a.steps_reused} steps replayed; {a.fingerprints} fingerprints "
            f"/ {a.restores} restores against {b.fingerprints} / {b.restores}; "
            f"{drift_on + drift_off} interned objects changed (want 0)"
        )
    return ok


def checker_smoke() -> bool:
    """The leaf checker on an exhaustive fastclaim DFS.

    The leaf count and the anomaly union are exact, machine-independent
    gates; the per-leaf checker cost is printed for eyeballing, never
    asserted.
    """
    r = explore_write_read_race(
        "fastclaim", max_depth=30, max_states=60_000, first_violation_only=False
    )
    union = sorted({str(a) for _, anomalies in r.violations for a in anomalies})
    ok = r.checks == EXPECT_CHECKS and union == EXPECT_ANOMALIES
    per = r.checker_seconds / r.checks * 1e6 if r.checks else 0.0
    print(
        f"{'ok  ' if ok else 'FAIL'} checker: {r.checks} leaves, "
        f"{r.checker_seconds * 1e3:.1f}ms checker ({per:.0f}us/leaf)"
    )
    if r.checks != EXPECT_CHECKS:
        print(f"     expected checks={EXPECT_CHECKS}, got {r.checks}")
    if union != EXPECT_ANOMALIES:
        print(f"     expected anomalies {EXPECT_ANOMALIES}, got {union}")
    return ok


#: exact leaf count and anomaly union of the checker smoke scenario
#: (machine-independent)
EXPECT_CHECKS = 5_395
EXPECT_ANOMALIES = [
    "CausalAnomaly(reader='Tr', obj='X0', read_value='X0:init', "
    "read_writer='Tin0', fresher_writer='Tw', fresher_value='X0:new')",
    "CausalAnomaly(reader='Tr', obj='X1', read_value='X1:init', "
    "read_writer='Tin1', fresher_writer='Tw', fresher_value='X1:new')",
]


def main() -> int:
    failures = 0
    failures += not fork_machinery_smoke()
    failures += not undo_smoke()
    failures += not fold_smoke()
    failures += not stutter_smoke()
    failures += not reuse_smoke()
    failures += not checker_smoke()
    for label, (proto, kwargs, expect) in BASELINES.items():
        t0 = time.perf_counter()
        r = explore_write_read_race(proto, **kwargs)
        dt = time.perf_counter() - t0
        got = dict(
            states_visited=r.states_visited,
            states_deduped=r.states_deduped,
            schedules_completed=r.schedules_completed,
            violations=len(r.violations),
            truncated=r.truncated,
        )
        ok = got == expect
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {got} in {dt:.1f}s")
        if not ok:
            print(f"     expected {expect}")
        print(f"     cost: {r.counters.describe()}")
    if failures:
        print(f"bench-smoke: {failures} baseline mismatch(es)")
        return 1
    print("bench-smoke: all exploration baselines reproduced")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
