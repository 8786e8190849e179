"""Property-based tests (hypothesis) for the core invariants:

* simulator determinism and snapshot/restore fidelity under arbitrary
  schedules;
* the serialization-search engine agrees with brute-force permutation
  search on small random histories;
* the batch causal closure equals naive reachability and rejects cycles;
* the witness-based causal checker is sound w.r.t. the exact checker;
* protocol runs under random adversaries stay consistent.
"""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.consistency import check_causal_exact, find_causal_anomalies
from repro.consistency.search import find_legal_serialization
from repro.sim.executor import Simulation
from repro.sim.scheduler import RandomScheduler
from repro.txn.history import CausalOrder, History
from repro.txn.types import BOTTOM, Transaction, TxnRecord

from helpers import Echo, Pinger, rec


# ---------------------------------------------------------------------------
# simulator determinism / snapshot fidelity under arbitrary schedules
# ---------------------------------------------------------------------------


def fresh_net():
    return Simulation(
        [Pinger("a", "e", n=3), Pinger("b", "e", n=3), Echo("e")]
    )


def state_of(sim):
    return (
        tuple(sim.processes["e"].seen),
        tuple(sim.processes["a"].got),
        tuple(sim.processes["b"].got),
        sim.event_count,
        sim.network.n_in_transit(),
        sim.network.n_income(),
    )


@st.composite
def schedules(draw):
    """A random but always-applicable event schedule over the echo net."""
    n = draw(st.integers(1, 40))
    return [draw(st.integers(0, 10**6)) for _ in range(n)]


def apply_schedule(sim, choices):
    """Apply a choice sequence: each int picks among enabled events."""
    for c in choices:
        deliverable = sim.network.pending()
        steppable = [
            p
            for p in sim.pids()
            if sim.network.income[p] or sim.processes[p].wants_step()
        ]
        options = [("d", m) for m in deliverable] + [("s", p) for p in steppable]
        if not options:
            break
        kind, x = options[c % len(options)]
        if kind == "d":
            sim.deliver_msg(x)
        else:
            sim.step(x)


class TestSimulatorProperties:
    @given(schedules())
    @settings(max_examples=60, deadline=None)
    def test_determinism(self, choices):
        a, b = fresh_net(), fresh_net()
        apply_schedule(a, choices)
        apply_schedule(b, choices)
        assert state_of(a) == state_of(b)

    @given(schedules(), schedules())
    @settings(max_examples=60, deadline=None)
    def test_snapshot_restore_replay(self, prefix, suffix):
        sim = fresh_net()
        apply_schedule(sim, prefix)
        snap = sim.snapshot()
        with sim.recording() as recorded:
            apply_schedule(sim, suffix)
        end_state = state_of(sim)
        sim.restore(snap)
        sim.replay(recorded)
        assert state_of(sim) == end_state

    @given(schedules())
    @settings(max_examples=40, deadline=None)
    def test_restore_branches_are_independent(self, choices):
        sim = fresh_net()
        snap = sim.snapshot()
        base = state_of(sim)
        apply_schedule(sim, choices)
        sim.restore(snap)
        assert state_of(sim) == base


# ---------------------------------------------------------------------------
# serialization search vs brute force
# ---------------------------------------------------------------------------


@st.composite
def tiny_histories(draw):
    """Up to 5 transactions over 2 objects, values unique per write."""
    n = draw(st.integers(1, 5))
    objs = ("X", "Y")
    records = []
    written = {"X": [], "Y": []}
    for i in range(n):
        kind = draw(st.sampled_from(["r", "w", "rw"]))
        client = draw(st.sampled_from(["c1", "c2"]))
        reads, writes = {}, {}
        if kind in ("r", "rw"):
            for obj in draw(st.sets(st.sampled_from(objs), min_size=1)):
                choices = [BOTTOM] + written[obj]
                reads[obj] = draw(st.sampled_from(choices))
        if kind in ("w", "rw"):
            for obj in draw(st.sets(st.sampled_from(objs), min_size=1)):
                val = f"{obj}{i}"
                writes[obj] = val
                written[obj].append(val)
        if not reads and not writes:
            continue
        records.append(
            rec(f"t{i}", client, reads=reads, writes=writes, invoked_at=i * 2)
        )
    return records


def brute_force_serializable(records):
    objs = sorted({o for r in records for o in r.txn.objects})
    for perm in itertools.permutations(records):
        state = {o: BOTTOM for o in objs}
        ok = True
        for r in perm:
            for obj, val in r.reads.items():
                if state[obj] != val:
                    ok = False
                    break
            if not ok:
                break
            for obj, val in r.txn.writes:
                state[obj] = val
        if ok:
            return True
    return False


class TestSearchVsBruteForce:
    @given(tiny_histories())
    @settings(max_examples=150, deadline=None)
    def test_agreement(self, records):
        got = find_legal_serialization(records, []).found
        want = brute_force_serializable(records)
        assert got == want


# ---------------------------------------------------------------------------
# the batch causal closure against naive reachability
# ---------------------------------------------------------------------------


@st.composite
def dags(draw, min_edges=0):
    """Nodes and an edge list acyclic under a drawn topological order
    (repeated edges included)."""
    n = draw(st.integers(2, 9))
    topo = draw(st.permutations([f"t{i}" for i in range(n)]))
    forward = [(topo[i], topo[j]) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(forward), min_size=min_edges, max_size=20))
    return [f"t{i}" for i in range(n)], edges


def reachability(nodes, edges):
    succ = {x: {b for a, b in edges if a == x} for x in nodes}
    out = set()
    for x in nodes:
        todo, seen = list(succ[x]), set()
        while todo:
            y = todo.pop()
            if y not in seen:
                seen.add(y)
                todo.extend(succ[y])
        out |= {(x, y) for y in seen}
    return out


class TestCausalClosure:
    @given(dags())
    @settings(max_examples=200, deadline=None)
    def test_closure_is_reachability(self, dag):
        nodes, edges = dag
        assert set(CausalOrder.from_edges(nodes, edges).edges()) == reachability(
            nodes, edges
        )

    @given(dags(min_edges=1), st.data())
    @settings(max_examples=100, deadline=None)
    def test_back_edge_raises(self, dag, data):
        nodes, edges = dag
        a, b = data.draw(st.sampled_from(sorted(reachability(nodes, edges))))
        with pytest.raises(ValueError, match="cycle"):
            CausalOrder.from_edges(nodes, edges + [(b, a)])


# ---------------------------------------------------------------------------
# real-time precedence: the covering edges stand for the whole relation
# ---------------------------------------------------------------------------


@st.composite
def intervals(draw, n_min=1, n_max=12):
    """``(invoked_at, completed_at)`` stamps, ties included: a client
    that finishes and begins in one step gives ``completed_at ==
    invoked_at``, which is no precedence."""
    n = draw(st.integers(n_min, n_max))
    out = []
    for _ in range(n):
        start = draw(st.integers(0, 20))
        out.append((start, start + draw(st.integers(0, 6))))
    return out


def precedence(records):
    return {
        (a.txid, b.txid)
        for a in records
        for b in records
        if a.completed_at < b.invoked_at
    }


def timed(records, stamps):
    return [
        dataclasses.replace(r, invoked_at=i, completed_at=c)
        for r, (i, c) in zip(records, stamps)
    ]


class TestRealtimeCoveringEdges:
    @given(intervals())
    @settings(max_examples=200, deadline=None)
    def test_closure_is_the_precedence_relation(self, stamps):
        records = timed(
            [rec(f"t{i}", "c", writes={"X": i}) for i in range(len(stamps))], stamps
        )
        edges = History(records=records).realtime_edges()
        full = precedence(records)
        assert len(set(edges)) == len(edges) and set(edges) <= full
        closure = CausalOrder.from_edges([r.txid for r in records], edges)
        assert set(closure.edges()) == full
        # covering: no edge is implied by two others
        mids = [r.txid for r in records]
        for a, b in edges:
            assert not any((a, x) in full and (x, b) in full for x in mids)

    @given(tiny_histories(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_search_is_identical_on_covering_edges(self, records, data):
        records = timed(records, data.draw(intervals(len(records), len(records))))
        covering = find_legal_serialization(
            records, History(records=records).realtime_edges()
        )
        full = find_legal_serialization(records, sorted(precedence(records)))
        assert (covering.found, covering.order, covering.steps, covering.exhausted) == (
            full.found, full.order, full.steps, full.exhausted
        )


# ---------------------------------------------------------------------------
# witness checker soundness
# ---------------------------------------------------------------------------


class TestWitnessSoundness:
    @given(tiny_histories())
    @settings(max_examples=150, deadline=None)
    def test_anomaly_implies_exact_failure(self, records):
        hist = History(records=records)
        anomalies = find_causal_anomalies(hist)
        if anomalies:
            res = check_causal_exact(hist)
            if res.conclusive:
                assert not res.consistent, (
                    "witness checker flagged a causally consistent history: "
                    + anomalies[0].describe()
                )


# ---------------------------------------------------------------------------
# protocols under random adversaries
# ---------------------------------------------------------------------------


class TestProtocolsRandomized:
    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_cops_snow_random_adversary(self, seed):
        from repro.protocols import build_system
        from repro.workloads import WorkloadSpec, run_workload
        from repro.consistency import check_history

        system = build_system("cops_snow", objects=("X0", "X1"), n_servers=2,
                              clients=("c0", "c1", "c2"))
        spec = WorkloadSpec(n_txns=14, read_ratio=0.5, read_size=(1, 2), seed=seed)
        hist = run_workload(system, spec)
        report = check_history(hist, level="causal", exact=True)
        assert report.ok, report.describe()

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_wren_random_adversary(self, seed):
        from repro.protocols import build_system
        from repro.workloads import WorkloadSpec, run_workload
        from repro.consistency import check_history

        system = build_system("wren", objects=("X0", "X1"), n_servers=2,
                              clients=("c0", "c1", "c2"))
        spec = WorkloadSpec(n_txns=12, read_ratio=0.5, read_size=(1, 2), seed=seed)
        hist = run_workload(system, spec)
        report = check_history(hist, level="causal", exact=True)
        assert report.ok, report.describe()
