"""The fast-fork snapshot machinery: isolation, cost accounting, budgets.

The component-granular snapshot rework (``Configuration`` as one pickle
sub-blob per process plus a structural network capture, restored by
loading both afresh) must preserve the old deep-copy contract exactly:
a snapshot is isolated from every future mutation of the live
simulation, a restore never hands out mutable state aliased with the
snapshot, and the exploration engine's fingerprints reproduce the same
equivalence classes.  Every contract test here runs against both
snapshot modes — the bytes path and the deep-copy oracle.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.explore import explore_write_read_race
from repro.sim.events import Step, any_enabled, enabled_events, step_stutters
from repro.core.setup import prepare_theorem_system
from repro.protocols import get_protocol
from repro.protocols.registry import protocol_names
from repro.sim.executor import (
    SNAPSHOT_MODES,
    Configuration,
    DeepCopyConfiguration,
    SimCounters,
    Simulation,
    use_snapshot_mode,
)
from repro.sim.messages import Message
from repro.sim.process import NullProcess
from repro.sim.scheduler import RoundRobinScheduler
from repro.sim.snapshot import DeepCopySnapshotter, dumps_canonical
from repro.txn.types import write_only_txn

from helpers import Echo, Note, Pinger, race_system

MODES = ("bytes", "deepcopy")


def test_exactly_one_production_path_and_one_oracle():
    assert SNAPSHOT_MODES == MODES
    with pytest.raises(ValueError, match="unknown snapshot mode"):
        with use_snapshot_mode("blob"):
            pass


def proc_states(sim):
    """Canonical per-process protocol state.

    Serialized with the identity-blind canonical dump, not a raw
    ``pickle.dumps``: a raw pickle's memo encodes object-*sharing*
    topology, which is not part of the semantic state (restoring a
    snapshot materializes value-equal objects whose sharing may differ
    from the originals — ``copy.deepcopy`` and ``pickle.loads`` already
    disagree about it).  The canonical dump is exact on values, which is
    the relation every verdict and fingerprint is defined over.
    """
    return {
        pid: dumps_canonical(p.__getstate__())
        for pid, p in sim.processes.items()
    }


def run_some(sim, tsys, events=6):
    sched = RoundRobinScheduler()
    pids = (tsys.cw,) + tuple(tsys.servers)
    for _ in range(events):
        sched.tick(sim, pids=pids)


# ---------------------------------------------------------------------------
# Snapshot isolation on a protocol with nested state (Wren: 2PC prepared
# maps, write caches, vector frontiers)
# ---------------------------------------------------------------------------


class TestSnapshotIsolation:
    @pytest.mark.parametrize("mode", MODES)
    def test_live_mutation_does_not_touch_snapshot(self, mode):
        with use_snapshot_mode(mode):
            tsys = prepare_theorem_system("wren")
            sim = tsys.sim
            sim.invoke(tsys.cw, tsys.tw())
            run_some(sim, tsys)
            snap = sim.snapshot()
            frozen = proc_states(sim)
            fp = sim.fingerprint()
            # mutate the live sim well past the snapshot
            run_some(sim, tsys, events=12)
            assert proc_states(sim) != frozen  # the run did change state
            sim.restore(snap)
            assert proc_states(sim) == frozen
            assert sim.fingerprint() == fp

    @pytest.mark.parametrize("mode", MODES)
    def test_mutating_restored_state_does_not_touch_snapshot(self, mode):
        with use_snapshot_mode(mode):
            tsys = prepare_theorem_system("wren")
            sim = tsys.sim
            sim.invoke(tsys.cw, tsys.tw())
            run_some(sim, tsys)
            snap = sim.snapshot()
            frozen = proc_states(sim)
            sim.restore(snap)
            run_some(sim, tsys, events=12)  # mutate the restored branch
            sim.restore(snap)  # the snapshot must still be pristine
            assert proc_states(sim) == frozen

    @pytest.mark.parametrize("mode", ["bytes"])
    def test_materialized_views_are_private(self, mode):
        # serialized mode only: a DeepCopyConfiguration hands out the
        # held objects themselves (the old contract — restore forks,
        # direct access aliases); the serialized snapshot materializes a
        # private copy on every access
        with use_snapshot_mode(mode):
            tsys = prepare_theorem_system("wren")
            sim = tsys.sim
            sim.invoke(tsys.cw, tsys.tw())
            run_some(sim, tsys)
            snap = sim.snapshot()
            frozen = proc_states(sim)
            view = snap.processes
            # trash the materialized copy; the snapshot must not notice
            for p in view.values():
                p.__dict__.clear()
            sim.restore(snap)
            assert proc_states(sim) == frozen

    def test_fork_shares_immutable_captures(self):
        tsys = prepare_theorem_system("wren")
        sim = tsys.sim
        snap = sim.snapshot()
        fork = snap.fork()
        assert isinstance(snap, Configuration)
        # O(1): the per-component captures are shared, not copied
        assert fork.proc_blobs is snap.proc_blobs
        assert fork.net_state is snap.net_state
        assert fork.size_bytes() == snap.size_bytes() > 0

    def test_consecutive_snapshots_share_clean_components(self):
        # after one event, a new snapshot re-captures only the touched
        # components; every clean sub-blob is the *same* object as the
        # previous snapshot's
        tsys = prepare_theorem_system("wren")
        sim = tsys.sim
        sim.invoke(tsys.cw, tsys.tw())
        snap1 = sim.snapshot()
        sim.step(tsys.cw)  # cw starts Tw (and the network carries its sends)
        snap2 = sim.snapshot()
        blobs1, blobs2 = dict(snap1.proc_blobs), dict(snap2.proc_blobs)
        assert blobs1.keys() == blobs2.keys()
        shared = [pid for pid in blobs1 if blobs1[pid] is blobs2[pid]]
        assert set(blobs1) - set(shared) == {tsys.cw}

    def test_value_equal_states_intern_to_one_blob(self):
        # a stuttering step leaves the process byte-equal: the re-pickled
        # sub-blob interns to the *same* bytes object
        tsys = prepare_theorem_system("wren")
        sim = tsys.sim
        sim.invoke(tsys.cw, tsys.tw())
        run_some(sim, tsys)
        snap1 = sim.snapshot()
        pickled = sim.counters.components_serialized
        sim.step(tsys.cw)  # nothing in the inbox, nothing to do
        snap2 = sim.snapshot()
        # outside a journal every process is pickled afresh, and the
        # network captured afresh
        assert sim.counters.components_serialized == pickled + len(sim.processes) + 1
        assert dict(snap2.proc_blobs)[tsys.cw] is dict(snap1.proc_blobs)[tsys.cw]

    def test_pickled_snapshot_carries_no_fingerprint_data(self):
        tsys = prepare_theorem_system("wren")
        sim = tsys.sim
        sim.invoke(tsys.cw, tsys.tw())
        run_some(sim, tsys)
        snap = sim.snapshot()
        before = len(pickle.dumps(snap))
        sim.fingerprint()
        sim.fingerprint(canonical=True)
        assert len(pickle.dumps(snap)) == before

    def test_deepcopy_fork_is_independent(self):
        with use_snapshot_mode("deepcopy"):
            tsys = prepare_theorem_system("wren")
            sim = tsys.sim
            snap = sim.snapshot()
            assert isinstance(snap, DeepCopyConfiguration)
            fork = snap.fork()
            assert fork.processes is not snap.processes
            assert fork.size_bytes() > 0

    @pytest.mark.parametrize("mode", MODES)
    def test_restore_refuses_what_snapshot_did_not_produce(self, mode):
        with use_snapshot_mode(mode):
            sim = Simulation([Pinger("p", "e", n=2), Echo("e")])
            sim.step("p")
            procs, net = sim.processes, sim.network
            fp = sim.fingerprint()
            before = sim.counters.as_dict()
            for bogus in (object(), pickle.dumps((procs, net))):
                with pytest.raises(TypeError, match=type(bogus).__name__):
                    sim.restore(bogus)
            # refused before anything was touched
            assert sim.processes is procs and sim.network is net
            assert sim.counters.as_dict() == before
            assert sim.fingerprint() == fp


# ---------------------------------------------------------------------------
# Mode equivalence: the fast path must reproduce the reference exploration
# ---------------------------------------------------------------------------


def result_key(r):
    return dict(
        states_visited=r.states_visited,
        states_deduped=r.states_deduped,
        schedules_completed=r.schedules_completed,
        truncated=r.truncated,
        traces=sorted(tuple(s) for s, _ in r.violations),
        anomalies=sorted({str(a) for _, found in r.violations for a in found}),
    )


class TestModeEquivalence:
    """Bit-identity of ``bytes`` against the ``deepcopy`` oracle, on every
    registered protocol, with and (where the registry allows it) without
    partial-order reduction."""

    @pytest.mark.parametrize("protocol", protocol_names())
    def test_exploration_identical_across_modes(self, protocol):
        # swiftcloud's stale default cannot initialize the theorem system
        params = {"sync_every": 1} if protocol == "swiftcloud" else {}
        for por in (False, True) if get_protocol(protocol).por_safe else (False,):
            keys = {}
            for mode in MODES:
                with use_snapshot_mode(mode):
                    r = explore_write_read_race(
                        protocol,
                        max_states=600,
                        por=por,
                        first_violation_only=False,
                        **params,
                    )
                keys[mode] = result_key(r)
            assert keys["bytes"] == keys["deepcopy"], f"{protocol} por={por}"


# ---------------------------------------------------------------------------
# Intra-process aliasing: a snapshot must keep one object one object
# ---------------------------------------------------------------------------


class TestIntraProcessAliasing:
    """A server may hold one mutable ``Version`` from two fields — in its
    ``store`` chain and in its ``pending`` write state — and flip it
    visible in place through either.  A snapshot that captured the two
    fields separately would hand back two copies: the readers check
    would complete on ``pending``'s copy and the stored version would
    stay invisible forever.
    """

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("protocol", ["cops_snow", "handshake"])
    def test_pending_write_still_reveals_the_stored_version(self, protocol, mode):
        with use_snapshot_mode(mode):
            tsys = prepare_theorem_system(protocol)
            sim = tsys.sim
            if get_protocol(protocol).supports_wtx:
                sim.invoke(tsys.cw, tsys.tw())
            else:  # single-object writes: the second depends on the first
                for i, (obj, val) in enumerate(tsys.new_values.items()):
                    sim.invoke(tsys.cw, write_only_txn({obj: val}, txid=f"Tw{i}"))
            pids = (tsys.cw,) + tuple(tsys.servers)

            def servers():
                return [sim.processes[pid] for pid in tsys.servers]

            def hidden():
                return [
                    v for srv in servers() for chain in srv.store.values()
                    for v in chain if not v.visible
                ]

            sched = RoundRobinScheduler()
            sched.run(
                sim, pids=pids, until=lambda _: any(s.pending for s in servers())
            )
            assert hidden()
            snap = sim.snapshot()
            sched.run(sim, pids=pids)  # run on: the live branch reveals it
            assert not hidden()
            sim.restore(snap)
            assert hidden() and any(s.pending for s in servers())
            # deliver the rest of the exchange (snow_resp / handshake token)
            RoundRobinScheduler().run(sim, pids=pids)
            assert not any(s.pending for s in servers())
            assert not hidden()


# ---------------------------------------------------------------------------
# Cost accounting
# ---------------------------------------------------------------------------


class TestSimCounters:
    def test_counters_track_snapshot_restore_fingerprint(self):
        sim = Simulation([Pinger("p", "e", n=2), Echo("e")])
        snap = sim.snapshot()
        sim.fingerprint()
        sim.step("p")
        sim.restore(snap)
        c = sim.counters
        assert c.snapshots == 1
        assert c.restores == 1
        assert c.fingerprints == 1
        assert c.bytes_serialized > 0

    def test_unchanged_state_reuses_serialization(self):
        sim = Simulation([Pinger("p", "e", n=2), Echo("e")])
        sim.mark()  # under a journal a process changes only by a swap
        sim.snapshot()
        before = sim.counters.bytes_serialized
        sim.snapshot()  # no event in between: the row's blob is reused
        assert sim.counters.bytes_serialized == before
        assert sim.counters.cache_hits >= 1
        assert sim.counters.bytes_reused > 0

    def test_restore_to_current_state_loads_fresh_objects(self):
        # under a journal the live processes are the state table's
        # interned objects; a restore of a snapshot of that very state
        # loads every process and the network afresh all the same
        sim = Simulation([Pinger("p", "e", n=2), Echo("e")])
        sim.mark()
        sim.step("p")
        snap = sim.snapshot()
        live = [*sim.processes.values(), sim.network]
        sim.restore(snap)
        assert all(a is not b for a in live for b in [*sim.processes.values(), sim.network])
        assert sim.counters.bytes_restored == snap.size_bytes()

    def test_restore_after_event_materializes_fresh_objects(self):
        sim = Simulation([Pinger("p", "e", n=2), Echo("e")])
        snap = sim.snapshot()
        procs = sim.processes
        sim.step("p")
        sim.restore(snap)
        assert sim.processes is not procs
        assert sim.counters.bytes_restored > 0

    def test_byte_accumulation_arithmetic(self):
        """The ledger's byte fields follow the component arithmetic.

        A fresh snapshot pays exactly its own size in ``bytes_serialized``
        (the network component is a zero-byte structural capture, so
        ``size_bytes`` and the pickled process bytes coincide); a restore
        loads every component and pays exactly that size again in
        ``bytes_restored``.
        """
        sim = Simulation([Pinger("p", "e", n=2), Echo("e")])
        n_components = len(sim.processes) + 1  # + the network
        snap = sim.snapshot()
        c = sim.counters
        assert c.bytes_serialized == snap.size_bytes()
        assert c.components_serialized == c.cache_misses == n_components
        sim.step("p")
        before = c.as_dict()
        sim.restore(snap)
        assert c.restores == before["restores"] + 1
        assert c.components_restored - before["components_restored"] == n_components
        assert c.bytes_restored - before["bytes_restored"] == snap.size_bytes()

    @pytest.mark.parametrize("mode", MODES)
    def test_restore_reuse_consistency_across_modes(self, mode):
        """No mode reuses a live component: both agree on zero reuse.

        Restoring a snapshot of the current state hands back fresh
        processes and a fresh network in either mode, and
        ``components_reused`` stays 0; the bytes mode pays the
        snapshot's size in ``bytes_restored`` (deepcopy moves objects,
        not bytes).
        """
        with use_snapshot_mode(mode):
            sim = Simulation([Pinger("p", "e", n=2), Echo("e")])
            snap = sim.snapshot()
            procs, net = dict(sim.processes), sim.network
            sim.restore(snap)  # live state already matches the snapshot
            assert all(sim.processes[pid] is not p for pid, p in procs.items())
            assert sim.network is not net
            c = sim.counters
            assert c.components_reused == 0
            assert c.bytes_restored == (snap.size_bytes() if mode == "bytes" else 0)

    @pytest.mark.parametrize("mode", ["bytes"])
    def test_snapshot_reuse_bytes_across_modes(self, mode):
        """Back-to-back snapshots under a journal reuse serialization in
        the bytes mode."""
        with use_snapshot_mode(mode):
            sim = Simulation([Pinger("p", "e", n=2), Echo("e")])
            sim.mark()
            sim.snapshot()
            before = sim.counters.as_dict()
            sim.snapshot()
            c = sim.counters
            assert c.bytes_serialized == before["bytes_serialized"]
            assert c.bytes_reused > before["bytes_reused"]
            assert c.cache_hits > before["cache_hits"]

    def test_merge_adds_every_field(self):
        """merge() is plain fieldwise addition — including the component
        fields, so worker ledgers survive the parallel merge intact."""
        a = SimCounters(**{k: 2 * i + 1 for i, k in
                           enumerate(SimCounters().as_dict())})
        b = SimCounters(**{k: 10 * (i + 1) for i, k in
                           enumerate(SimCounters().as_dict())})
        expect = {k: a.as_dict()[k] + b.as_dict()[k] for k in a.as_dict()}
        a.merge(b)
        assert a.as_dict() == expect

    def test_workers_counters_include_worker_traffic(self):
        """A pooled run's merged ledger carries the workers' restores."""
        serial = explore_write_read_race(
            "fastclaim", max_depth=12, max_states=4_000, por=True,
            first_violation_only=False,
        )
        fanned = explore_write_read_race(
            "fastclaim", max_depth=12, max_states=4_000, por=True,
            first_violation_only=False, workers=2,
        )
        assert not fanned.auto_serial
        # the merged ledger covers seeding + every worker subtree.  One
        # restore per generated child, and the pool's closure (no sleep
        # sets) generates at least the children the serial walk does.
        # Snapshots are not comparable: one per *expanded* node, and the
        # closure expands each class once where sleep sets re-expand some
        assert fanned.counters.restores >= serial.counters.restores
        assert fanned.counters.snapshots >= fanned.roots_shipped > 0

    def test_describe_and_as_dict(self):
        c = SimCounters(snapshots=3, restores=2, fingerprints=1,
                        bytes_serialized=100, bytes_reused=300)
        text = c.describe()
        assert "3 snapshots" in text and "2 restores" in text
        d = c.as_dict()
        assert d["snapshots"] == 3 and d["bytes_reused"] == 300

    def test_exploration_surfaces_counters(self):
        r = explore_write_read_race("fastclaim", max_depth=10, max_states=500)
        assert r.counters is not None
        assert r.counters.snapshots > 0
        assert "cost:" in r.describe()


# ---------------------------------------------------------------------------
# The max_states budget
# ---------------------------------------------------------------------------


class TestStateBudget:
    def test_budget_cuts_search_immediately(self):
        r = explore_write_read_race(
            "cops", max_depth=22, max_states=200, first_violation_only=False
        )
        # the budget check counts the state that overflows it, then stops
        # all descent: exactly one state past the budget is ever visited
        assert r.states_visited == 201
        assert r.truncated >= 1

    def test_budget_truncation_counts_cut_siblings(self):
        small = explore_write_read_race("cops", max_depth=22, max_states=200)
        big = explore_write_read_race("cops", max_depth=22, max_states=6_000)
        assert big.states_visited == 6_001
        # a deeper budget explores strictly more and truncates elsewhere
        assert big.schedules_completed > small.schedules_completed

    def test_unbudgeted_run_not_truncated(self):
        r = explore_write_read_race("fastclaim", max_depth=8, max_states=10**6)
        # shallow depth truncates, but never via the state budget
        assert r.states_visited < 10**6


# ---------------------------------------------------------------------------
# Fingerprint properties (hypothesis): equal prefixes agree, any extra
# event disagrees — this is the property that guards the fingerprint's
# caches (a stale state-table record or placement slot would break the
# second half)
# ---------------------------------------------------------------------------


def fresh_sim():
    return Simulation([Pinger("p", "e", n=3), Echo("e")])


def apply_choices(sim, choices):
    """Drive the sim by the explorer's own enabled-event menu."""
    applied = 0
    for c in choices:
        events = enabled_events(sim, ("p", "e"))
        if not events:
            break
        events[c % len(events)].apply(sim)
        applied += 1
    return applied


class TestFingerprintProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=7), max_size=12))
    def test_same_prefix_same_fingerprint(self, choices):
        a, b = fresh_sim(), fresh_sim()
        apply_choices(a, choices)
        apply_choices(b, choices)
        assert a.fingerprint() == b.fingerprint()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=7), max_size=10),
        st.integers(min_value=0, max_value=7),
    )
    def test_extra_event_changes_fingerprint(self, choices, extra):
        sim = fresh_sim()
        apply_choices(sim, choices)
        fp = sim.fingerprint()
        if apply_choices(sim, [extra]) == 0:
            return  # quiescent: no extra event exists
        assert sim.fingerprint() != fp

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=7), max_size=10))
    def test_fingerprint_stable_across_snapshot_restore(self, choices):
        sim = fresh_sim()
        apply_choices(sim, choices)
        snap = sim.snapshot()
        fp = sim.fingerprint()
        apply_choices(sim, [0, 1, 2])
        sim.restore(snap)
        assert sim.fingerprint() == fp


# ---------------------------------------------------------------------------
# Network-capture reuse soundness across DFS branches (regression)
# ---------------------------------------------------------------------------


def placement(net):
    """``{link: [msg_id…]}`` and ``{pid: [msg_id…]}`` of a network."""
    return (
        {link: [m.msg_id for m in q] for link, q in net.in_transit.items()},
        {pid: [m.msg_id for m in v] for pid, v in net.income.items()},
    )


class TestNetCaptureBranchSoundness:
    """A network capture is a function of the live containers alone.

    Restores share the pre-fork ``Message`` objects by reference and
    ``Network.deliver`` removes from arbitrary queue positions, so two
    sibling branches that deliver *different* non-last messages out of
    the same restored length-3 queue hold containers with equal length
    and an identical last element but different contents.  A capture
    that reused the previous capture's sub-tuples behind a (length,
    last-element) guard once aliased the two, corrupting the second
    branch's snapshot and strict fingerprint; ``_net_capture`` now
    builds every tuple afresh, so there is nothing left to alias.
    """

    @pytest.mark.parametrize("mode", MODES)
    def test_sibling_branches_do_not_alias_captures(self, mode):
        with use_snapshot_mode(mode):
            sim = Simulation([Pinger("a", "b", n=3), Echo("b")])
            for _ in range(3):
                sim.step("a")  # queue a->b now holds link_seq 0, 1, 2
            base = sim.snapshot()
            sim.fingerprint()
            # branch A: deliver the head of the queue
            sim.deliver("a", "b", 0)
            snap_a = sim.snapshot()
            want_a = placement(sim.network)
            fp_a = sim.fingerprint()
            # back out; branch B: deliver the *middle* message — same
            # length, same (shared) last element, different contents
            sim.restore(base)
            sim.deliver("a", "b", 1)
            snap_b = sim.snapshot()
            want_b = placement(sim.network)
            fp_b = sim.fingerprint()
            q_a = [m.link_seq for m in snap_a.network.in_transit[("a", "b")]]
            q_b = [m.link_seq for m in snap_b.network.in_transit[("a", "b")]]
            assert q_a == [1, 2]
            assert q_b == [0, 2]
            assert fp_a != fp_b
            # sibling snapshots never share a queue they disagree on:
            # each still says what the live network said when it was taken
            assert placement(snap_a.network) == want_a
            assert placement(snap_b.network) == want_b
            assert want_a != want_b
            # the strict fingerprint must be a pure function of the
            # state: a fresh simulation driven to B's exact state agrees
            fresh = Simulation([Pinger("a", "b", n=3), Echo("b")])
            for _ in range(3):
                fresh.step("a")
            fresh.deliver("a", "b", 1)
            assert fresh.fingerprint() == fp_b

    @pytest.mark.parametrize("mode", MODES)
    def test_income_buffers_do_not_alias_captures(self, mode):
        """Same aliasing shape on the income buffers: both branches end
        by delivering the same (shared) message, so the buffers agree on
        length and last element but differ in the middle."""
        with use_snapshot_mode(mode):
            sim = Simulation([Pinger("a", "b", n=3), Echo("b")])
            for _ in range(3):
                sim.step("a")
            base = sim.snapshot()
            sim.fingerprint()
            sim.deliver("a", "b", 0)
            sim.deliver("a", "b", 2)
            snap_a = sim.snapshot()
            want_a = placement(sim.network)
            fp_a = sim.fingerprint()
            sim.restore(base)
            sim.deliver("a", "b", 1)
            sim.deliver("a", "b", 2)
            snap_b = sim.snapshot()
            want_b = placement(sim.network)
            fp_b = sim.fingerprint()
            assert fp_a != fp_b
            got_a = [m.link_seq for m in snap_a.network.income["b"]]
            got_b = [m.link_seq for m in snap_b.network.income["b"]]
            assert got_a == [0, 2]
            assert got_b == [1, 2]
            assert placement(snap_a.network) == want_a
            assert placement(snap_b.network) == want_b


# ---------------------------------------------------------------------------
# The strict placement encoding: equal bytes iff equal placement
# ---------------------------------------------------------------------------

NET_PIDS = ("a", "b", "c")


def drive_network(ops):
    """A simulation of idle processes whose network ran ``ops``:
    ``("post", src, dst, msg_id)``, ``("deliver", k)`` (the k-th pending
    message, so deliveries leave queues out of order) or ``("drain", pid)``."""
    sim = Simulation([NullProcess(pid) for pid in NET_PIDS])
    net = sim.network
    for op in ops:
        if op[0] == "post":
            _, src, dst, msg_id = op
            net.post(Message(msg_id, src, dst, net.next_link_seq(src, dst), Note(msg_id)))
        elif op[0] == "deliver":
            pending = net.pending()
            if pending:
                m = pending[op[1] % len(pending)]
                net.deliver(m.src, m.dst, m.link_seq)
        else:
            net.drain_income(op[1])
    return sim


def assert_strict_fingerprint_is_placement(ops_a, ops_b):
    a, b = drive_network(ops_a), drive_network(ops_b)
    same = placement(a.network) == placement(b.network)
    for mode in MODES:
        with use_snapshot_mode(mode):
            assert (a.fingerprint() == b.fingerprint()) == same, mode
    return same


net_ops = st.lists(
    st.one_of(
        st.tuples(st.just("post"), st.sampled_from(NET_PIDS),
                  st.sampled_from(NET_PIDS), st.integers(0, 3)).filter(
                      lambda op: op[1] != op[2]),
        st.tuples(st.just("deliver"), st.integers(0, 5)),
        st.tuples(st.just("drain"), st.sampled_from(NET_PIDS)),
    ),
    max_size=8,
)


class TestStrictPlacementEncoding:
    @settings(max_examples=150, deadline=None)
    @given(net_ops, net_ops)
    def test_equal_fingerprint_iff_equal_placement(self, ops_a, ops_b):
        assert_strict_fingerprint_is_placement(ops_a, ops_b)

    @pytest.mark.parametrize(
        "ops_a, ops_b, same",
        [
            # the same msg_id on different links: the link indices are
            # load-bearing, a position-only encoding would collide these
            ([("post", "a", "b", 0)], [("post", "a", "c", 0)], False),
            ([("post", "a", "b", 0)], [("post", "b", "a", 0)], False),
            # a used-then-emptied link is not a never-used one (today's
            # partition; the committed exact counts depend on it)
            ([("post", "a", "b", 0), ("deliver", 0), ("drain", "b")], [], False),
            # in transit vs delivered, and arrival order inside a buffer
            ([("post", "a", "b", 0)], [("post", "a", "b", 0), ("deliver", 0)], False),
            (
                [("post", "a", "c", 0), ("post", "b", "c", 1), ("deliver", 0), ("deliver", 0)],
                [("post", "a", "c", 0), ("post", "b", "c", 1), ("deliver", 1), ("deliver", 0)],
                False,
            ),
            # insertion order of the in_transit keys does not matter
            (
                [("post", "a", "b", 0), ("post", "a", "c", 1)],
                [("post", "a", "c", 1), ("post", "a", "b", 0)],
                True,
            ),
        ],
    )
    def test_pinned_partition(self, ops_a, ops_b, same):
        assert assert_strict_fingerprint_is_placement(ops_a, ops_b) == same


# ---------------------------------------------------------------------------
# The content memos stay bounded
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("por", [False, True])
def test_state_table_and_message_memo_are_bounded(monkeypatch, por):
    """The state table, the transition table beside it and the payload
    memos are pure caches: with both caps at 4 they are cleared over and
    over, stay within the cap plus the live entries, and the exploration
    does not move."""
    from repro.sim import snapshot as snapshot_mod

    kw = dict(max_depth=30, max_states=2_000, por=por, first_violation_only=False)
    reference = result_key(explore_write_read_race("fastclaim", **kw))

    peak = {"table": 0, "memo": 0, "live": 0, "in_flight": 0, "steps": 0, "sent": 0}
    real = Simulation.fingerprint

    def spy(self, *, canonical=False):
        fp = real(self, canonical=canonical)
        net = self.network
        caches = self._snapshotters["bytes"]
        peak["table"] = max(peak["table"], len(caches._states))
        peak["memo"] = max(peak["memo"], len(caches._canon))
        peak["steps"] = max(peak["steps"], len(caches._transitions))
        peak["sent"] = max(peak["sent"], len(caches._payloads))
        peak["live"] = len(self.processes)
        peak["in_flight"] = max(
            peak["in_flight"],
            sum(map(len, net.in_transit.values()))
            + sum(map(len, net.income.values())),
        )
        return fp

    monkeypatch.setattr(snapshot_mod, "_STATE_TABLE_CAP", 4)
    monkeypatch.setattr(snapshot_mod, "_PAYLOAD_MEMO_CAP", 4)
    monkeypatch.setattr(Simulation, "fingerprint", spy)
    assert result_key(explore_write_read_race("fastclaim", **kw)) == reference
    assert 0 < peak["table"] <= 4 + peak["live"]
    assert peak["memo"] <= 4 + peak["in_flight"]
    assert (peak["memo"] > 0) == por  # only the canonical keying uses it
    assert 0 < peak["steps"] <= 4 and 0 < peak["sent"] <= 4


# ---------------------------------------------------------------------------
# The state table is a cache, never a value: warm and cold agree everywhere
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("protocol", protocol_names())
def test_warm_table_fingerprints_equal_cold_ones(protocol):
    """At every node of a bounded DFS the live (warm-table) fingerprint
    equals that of a fresh ``Simulation`` restored from the node's
    snapshot, whose empty table forces every walk — for the strict
    keying on all protocols and the canonical one where POR is allowed
    (``cops_snow`` and ``handshake``, which alias one object from two
    fields of a process, included)."""
    keyings = (False, True) if get_protocol(protocol).por_safe else (False,)
    sim, pids = race_system(protocol)
    budget = [120]

    def dfs(depth):
        snap = sim.snapshot()
        for canonical in keyings:
            cold = Simulation([])
            cold.restore(snap)
            assert sim.fingerprint(canonical=canonical) == cold.fingerprint(
                canonical=canonical
            ), (protocol, canonical, depth)
        budget[0] -= 1
        if depth >= 14:
            return
        for e in enabled_events(sim, pids):
            if budget[0] <= 0:
                return
            e.apply(sim)
            dfs(depth + 1)
            sim.restore(snap)

    dfs(0)
    hits, interned = sim.counters.cache_hits, sim.counters.states_interned
    assert interned < 120 * len(sim.processes)  # local states do repeat
    assert hits > 0


# ---------------------------------------------------------------------------
# Fingerprints see every container in process state (regression: deque)
# ---------------------------------------------------------------------------


class TestCanonizeContainers:
    def test_pending_invocations_reach_the_fingerprint(self):
        """``ClientBase.pending`` is a ``deque``, whose ``__getstate__()``
        is ``None``: two systems that differ only in the transaction
        queued at a probe used to have identical fingerprints."""
        from repro.txn.types import read_only_txn

        fps = []
        for objs in (("X0",), ("X0", "X1")):
            tsys = prepare_theorem_system("cops")
            tsys.sim.invoke(tsys.probes[0], read_only_txn(objs, txid="r1"))
            fps.append(
                (tsys.sim.fingerprint(), tsys.sim.fingerprint(canonical=True))
            )
        assert fps[0][0] != fps[1][0]
        assert fps[0][1] != fps[1][1]

    def test_deque_order_and_bound_are_state(self):
        from collections import deque

        dump = dumps_canonical
        assert dump(deque([1, 2])) != dump(deque([2, 1]))
        assert dump(deque([1, 2])) != dump(deque([1, 2], maxlen=2))
        assert dump(deque([1, 2])) != dump([1, 2])
        assert dump(deque([1, 2])) == dump(deque([1, 2]))

    def test_shared_set_elements_canonize_to_the_parent_commits_bytes(self):
        """One vector-clock entry held by several sets of one state: the
        case the per-call set-element memo of ``_canonize`` used to hit.
        The digest was recorded from the commit before the memo went;
        the only bytes that moved since are the module path the two
        sentinel classes are pickled under (same length, so it maps back).
        The entries' stamp class was ``repro.sim.clock.HLCTimestamp``
        then; a canonical dump holds only an object's class *name*, so
        the local stand-in carries that name."""
        import hashlib
        from collections import deque
        from dataclasses import dataclass

        @dataclass(frozen=True, order=True)
        class Stamp:
            physical: int
            logical: int
            node: str = ""

        Stamp.__module__, Stamp.__qualname__ = "repro.sim.clock", "HLCTimestamp"

        entry = ("s0", Stamp(3, 1))
        other = ("s1", Stamp(7, 0))
        state = {
            "seen": {entry, other},
            "acked": frozenset({entry}),
            "deps": [{entry, ("s2", Stamp(1, 0))}, {other, entry}],
            "queue": deque([frozenset({entry, other})]),
        }
        dump = dumps_canonical(state)
        assert b"repro.sim.snapshot" in dump
        dump = dump.replace(b"repro.sim.snapshot", b"repro.sim.executor")
        digest = hashlib.blake2b(dump, digest_size=16).hexdigest()
        assert digest == "6d8e87e17cc7100b05516de29a606b44"

    def test_opaque_iterables_are_refused_by_name(self):
        from collections import OrderedDict

        from repro.txn.types import BOTTOM

        with pytest.raises(TypeError, match="collections.OrderedDict"):
            dumps_canonical({"k": OrderedDict(a=1)})
        dumps_canonical({"k": BOTTOM})  # stateless sentinel: legal


# ---------------------------------------------------------------------------
# A write around every event: what each mode sees
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("canonical", [False, True])
@pytest.mark.parametrize("component", ["process", "network"])
def test_unbumped_mutation_is_stale_in_bytes_and_seen_by_the_oracle(
    component, canonical
):
    """A write that goes around every event.  On a process both modes
    see it: outside a journal the ``bytes`` path caches nothing about a
    process and digests the live object.  On the network it is stale in
    ``bytes``, which keeps the placement slots until one of the
    network's own mutators records the keys it wrote
    (``Network._wrote``); the ``deepcopy`` oracle digests the live
    network afresh, which is how ``TestModeEquivalence`` would notice.
    Once the keys are recorded the ``bytes`` path sees the write."""
    seen = {}
    for mode in MODES:
        with use_snapshot_mode(mode):
            sim = Simulation([Pinger("a", "b", n=2), Echo("b")])
            sim.step("a")
            before = sim.fingerprint(canonical=canonical)
            if component == "network":
                net = sim.network
                m = net.in_transit[("a", "b")].popleft()  # a delivery,
                net.income["b"].append(m)  # with no _wrote()
            else:
                sim.processes["b"].seen.append("smuggled")  # outside any event
            seen[mode] = sim.fingerprint(canonical=canonical) != before
            if component == "network":
                net._wrote(("a", "b"), "b")
            want = DeepCopySnapshotter().digest(sim.processes, sim.network, canonical)
            assert sim.fingerprint(canonical=canonical) == want, mode
    assert seen == {"bytes": component == "process", "deepcopy": True}


# ---------------------------------------------------------------------------
# What the e2e harness and the pool rely on
# ---------------------------------------------------------------------------


def test_harness_contract_names_and_entry_points():
    import types

    import repro.sim
    from repro.sim import executor

    # benchmarks/e2e/spans.py patches owner.__dict__[attr]: an entry
    # point inherited from a mixin would break the traced pass
    for name in ("snapshot", "restore", "fingerprint", "step", "deliver", "invoke"):
        assert isinstance(Simulation.__dict__[name], types.FunctionType), name
    for name in (
        "SimCounters", "Simulation", "Configuration", "DeepCopyConfiguration",
        "SNAPSHOT_MODES", "use_snapshot_mode", "PICKLE_PROTOCOL",
    ):
        assert getattr(executor, name) is getattr(repro.sim, name), name
    sim = fresh_sim()
    assert tuple(sim._snapshotters) == SNAPSHOT_MODES
    snap = sim.snapshot()
    with pytest.raises(TypeError):
        sim.fingerprint(snap)  # the retired positional `config` argument
    # each entry point books itself exactly once per call
    sim.fingerprint()
    sim.fingerprint(canonical=True)
    sim.restore(snap)
    c = sim.counters
    assert (c.snapshots, c.fingerprints, c.restores) == (1, 2, 1)


# ---------------------------------------------------------------------------
# The undo journal: restoring a mark is the exact inverse of what followed
# ---------------------------------------------------------------------------

#: registered protocols, plus "fan-in": two pingers and an echo, whose
#: income buffer fills from two links in any order before it steps
UNDO_PROTOCOLS = ("fan-in", "fastclaim", "cops", "cops_snow", "wren", "ramp")


def undo_system(protocol):
    if protocol == "fan-in":
        procs = [Pinger("a", "c", n=3), Pinger("b", "c", n=3), Echo("c")]
        return Simulation(procs), ("a", "b", "c")
    return race_system(protocol)


def live_view(sim):
    """Everything a restore must give back, down to container order."""
    from repro.sim.snapshot import placement_slots

    net = sim.network
    idx = {pid: i for i, pid in enumerate(sorted(sim.processes))}
    return dict(
        fp=sim.fingerprint(),
        fp_canon=sim.fingerprint(canonical=True),
        placement=placement_slots(net, idx, False),
        # the keys too: a link that emptied is not a link never used
        in_transit=[(link, [m.msg_id for m in q]) for link, q in net.in_transit.items()],
        income={pid: [m.msg_id for m in v] for pid, v in net.income.items()},
        link_counts=list(net.link_counts.items()),
        counters=(sim._msg_counter, sim.event_count),
        procs=proc_states(sim),
    )


@settings(max_examples=40, deadline=None)
@given(
    protocol=st.sampled_from(UNDO_PROTOCOLS),
    ops=st.lists(st.integers(min_value=0, max_value=9), max_size=30),
)
def test_restoring_a_mark_undoes_exactly_what_followed(protocol, ops):
    """Nested marks over drawn enabled events (0: mark, 1: restore the
    innermost mark, else: apply an event).  Each restore gives back the
    configuration its mark was taken at — income arrival order and
    emptied links included — and the same one a snapshot taken there
    restores into a fresh simulation."""
    sim, pids = undo_system(protocol)
    marks = []

    def undo_innermost():
        mark, want, snap = marks.pop()
        restores = sim.counters.restores
        sim.restore(mark)
        assert sim.counters.restores == restores + 1  # one restore, as ever
        assert live_view(sim) == want
        cold = Simulation([])
        cold.restore(snap)
        assert live_view(cold) == want

    for op in ops:
        if op == 0:
            want = live_view(sim)
            marks.append((sim.mark(), want, sim.snapshot()))
        elif op == 1 and marks:
            undo_innermost()
        else:
            events = enabled_events(sim, pids)
            if events:
                events[op % len(events)].apply(sim)
    while marks:
        undo_innermost()


@settings(max_examples=40, deadline=None)
@given(
    protocol=st.sampled_from(UNDO_PROTOCOLS),
    moves=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 9)), min_size=10, max_size=25
    ),
)
def test_the_incremental_fingerprint_is_the_oracles(protocol, moves):
    """Nested marks, undos, drawn events and one jump to a snapshot (0:
    mark, 1: undo the innermost mark, 2: snapshot, then jump to it, 3:
    a DFS child — mark, event, undo —, else the drawn enabled event).
    After every move, and after a DFS child's event, both keyings
    byte-equal the from-scratch oracle's digest of the same live state.
    The keying order alternates, so one keying is digested twice in a
    row each time — its slot vector folds in what was written — while
    the other is rebuilt."""
    sim, pids = undo_system(protocol)
    oracle = DeepCopySnapshotter()
    marks, snap, jumped, checks = [], None, False, 0

    def check():
        nonlocal checks
        checks += 1
        for canonical in (checks % 2 == 0, checks % 2 == 1):
            want = oracle.digest(sim.processes, sim.network, canonical)
            assert sim.fingerprint(canonical=canonical) == want, (checks, canonical)

    for op, pick in moves:
        events = enabled_events(sim, pids)
        if op == 0:
            marks.append(sim.mark())
        elif op == 1 and marks:
            sim.restore(marks.pop())
        elif op == 2 and not jumped:
            if snap is None:
                snap = sim.snapshot()
            else:
                sim.restore(snap)  # drops the journal: every mark goes
                marks, jumped = [], True
        elif op == 3 and events:
            mark = sim.mark()
            events[pick % len(events)].apply(sim)
            check()
            sim.restore(mark)
        elif events:
            events[pick % len(events)].apply(sim)
        check()


@pytest.mark.parametrize("protocol", protocol_names())
@settings(max_examples=6, deadline=None)
@given(picks=st.lists(st.integers(0, 9), min_size=5, max_size=30))
def test_a_stutter_changes_nothing(protocol, picks):
    """At every configuration of a drawn walk, each step the sim names a
    stutter (``step_stutters``) receives nothing, sends nothing and
    leaves both fingerprints as they were — the premise of the DFS's
    deciding such a step from its seen-set.  The walk also holds
    ``any_enabled`` to the enabled set it abbreviates, over every
    process and over a solo subset."""
    sim, pids = race_system(protocol)
    for pick in picks:
        events = enabled_events(sim, pids)
        assert any_enabled(sim, pids) == bool(events)
        assert any_enabled(sim) == bool(enabled_events(sim))
        assert any_enabled(sim, pids[1:]) == bool(enabled_events(sim, pids[1:]))
        for pid in pids:
            if not step_stutters(sim, pid):
                continue
            assert Step(pid) in events
            before = (sim.fingerprint(), sim.fingerprint(canonical=True))
            mark = sim.mark()
            with sim.recording() as applied:
                Step(pid).apply(sim)
            (step,) = applied
            assert (step.pid, step.received, step.sent) == (pid, (), ())
            assert (sim.fingerprint(), sim.fingerprint(canonical=True)) == before
            sim.restore(mark)
        if not events:
            break
        events[pick % len(events)].apply(sim)


def test_only_clients_that_keep_the_no_op_idle_stutter():
    """A process class may answer ``stutters()`` with True only if its
    step with an empty inbox is ``ClientBase``'s no-op: it inherits
    ``on_step`` and ``on_idle`` unchanged.  Checked on every registered
    protocol's processes, given a transaction in flight, and on a client
    that overrides ``on_idle``."""
    import copy

    from repro.protocols.fastclaim import FastClaimClient
    from repro.txn.client import ActiveTxn, ClientBase
    from repro.txn.types import read_only_txn

    def busy(proc):
        proc = copy.copy(proc)
        if isinstance(proc, ClientBase):
            proc.current = ActiveTxn(read_only_txn(("X0",), txid="T"), 0)
        return proc.stutters()

    answers = {}
    for protocol in protocol_names():
        sim, _ = race_system(protocol)
        for proc in sim.processes.values():
            answers[type(proc)] = busy(proc)
    for cls, stutters in answers.items():
        if stutters:
            assert cls.on_step is ClientBase.on_step, cls
            assert cls.on_idle is ClientBase.on_idle, cls
    assert sum(answers.values()) >= 10  # the skip is live for the zoo

    class Polling(FastClaimClient):
        def on_idle(self, ctx, active):
            active.round += 1

    polling = Polling("c9", ("s0", "s1"), {"X0": ("s0",)})
    assert not busy(polling) and busy(FastClaimClient("c9", ("s0", "s1"), {"X0": ("s0",)}))


def test_an_invocation_is_undone_with_its_steps():
    from repro.txn.types import read_only_txn

    tsys = prepare_theorem_system("cops", n_probes=2)
    sim, probe = tsys.sim, tsys.probes[1]
    want = live_view(sim)
    mark = sim.mark()
    sim.invoke(probe, read_only_txn(tsys.objects, txid="Tr"))
    sim.step(probe)
    assert live_view(sim) != want
    sim.restore(mark)
    assert live_view(sim) == want


class TestJournalLifetime:
    """Marks live inside one search; everything else fails loudly."""

    def test_a_stale_mark_is_refused_before_anything_moves(self):
        from repro.sim.executor import StaleMarkError

        sim = fresh_sim()
        snap = sim.snapshot()
        mark = sim.mark()
        sim.step("p")
        sim.restore(snap)  # a jump: the journal goes
        assert sim.network._journal is None
        outer = sim.mark()
        sim.step("p")
        inner = sim.mark()
        sim.step("p")
        sim.restore(outer)  # popped below the inner mark
        sim.step("p")
        sim.step("p")  # and regrown past its position
        fp, before = sim.fingerprint(), sim.counters.as_dict()
        for stale in (mark, inner):
            with pytest.raises(StaleMarkError):
                sim.restore(stale)
        assert sim.fingerprint() == fp
        assert sim.counters.restores == before["restores"]

    def test_a_search_that_raises_leaves_no_journal(self, monkeypatch):
        from repro.core.explore import explore
        from repro.engine.core import SerialSearch

        tsys = prepare_theorem_system("fastclaim", n_probes=2)
        sim = tsys.sim

        def leaf_fails(self):
            assert sim.network._journal is not None  # the DFS was journaling
            raise RuntimeError("injected leaf failure")

        monkeypatch.setattr(SerialSearch, "_check_leaf", leaf_fails)
        with pytest.raises(RuntimeError, match="injected leaf failure"):
            explore(tsys.system, tsys.race_script(), max_depth=30)
        assert sim.network._journal is None

    def test_forward_runs_and_the_induction_never_journal(self, monkeypatch):
        from repro.core.induction import run_induction
        from repro.protocols import build_system
        from repro.workloads import WorkloadSpec, run_workload

        def refuse(self):
            raise AssertionError("journaled outside a search")

        monkeypatch.setattr(Simulation, "mark", refuse)
        system = build_system("cops", objects=("X0", "X1"), n_servers=2)
        run_workload(system, WorkloadSpec(n_txns=20, read_ratio=0.5, seed=3))
        tsys = prepare_theorem_system("fastclaim")
        run_induction(tsys, max_k=4)
        for sim in (system.sim, tsys.sim):
            assert sim.network._journal is None
