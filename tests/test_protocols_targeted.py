"""Targeted per-protocol scenario tests: the distinctive mechanism of
each system is driven deterministically with explicit schedules."""

import pytest

from repro.protocols import build_system
from repro.protocols.base import ReadReply, ReadRequest
from repro.sim.scheduler import RoundRobinScheduler, run_until_quiescent
from repro.txn.types import BOTTOM, read_only_txn, write_only_txn


def quiesce(system, pids=None):
    run_until_quiescent(system.sim, pids=pids)


def do(system, client, txn):
    return system.execute(client, txn, scheduler=RoundRobinScheduler())


def do_frozen(system, client, txn, frozen_msgs):
    """Execute a transaction while keeping specific messages in transit."""
    from repro.core.visibility import FrozenScheduler

    c = system.client(client)
    before = len(c.completed)
    system.sim.invoke(client, txn)
    FrozenScheduler({m.msg_id for m in frozen_msgs}).run(
        system.sim,
        until=lambda s: len(c.completed) > before,
        max_events=50_000,
    )
    return c.completed[-1]


# ---------------------------------------------------------------------------
# COPS: the two-round dependency-check read
# ---------------------------------------------------------------------------


class TestCopsTwoRounds:
    def build(self):
        return build_system("cops", objects=("X0", "X1"), n_servers=2,
                            clients=("w", "r"))

    def test_round2_triggered_by_delayed_read(self, record):
        """Reproduce the paper's motivating race: the ROT's request to p0
        is delivered before the writes, the one to p1 after — round 1
        returns (old X0, new X1 with dep on new X0), and COPS repairs
        with a second round."""
        system = self.build()
        sim = system.sim
        events = record(sim)
        writer = system.client("w")
        reader = system.client("r")

        # establish causal chain: w writes X0 then X1 (dep on X0)
        do(system, "w", write_only_txn({"X0": "x0-old"}, txid="pre"))
        # reader's ROT: send both requests, deliver only the one to s0
        sim.invoke("r", read_only_txn(("X0", "X1"), txid="rot"))
        ev = sim.step("r")
        req = {m.dst: m for m in ev.sent}
        assert set(req) == {"s0", "s1"}
        sim.deliver_msg(req["s0"])
        sim.step("s0")  # replies with the old X0
        # now the writer updates X0 and X1 (X1 depends on new X0),
        # while the reader's request to s1 stays in transit
        do_frozen(system, "w", write_only_txn({"X0": "x0-new"}, txid="w0"),
                  [req["s1"]])
        do_frozen(system, "w", write_only_txn({"X1": "x1-new"}, txid="w1"),
                  [req["s1"]])
        # deliver the reader's request to s1: reply carries dep X0@new
        sim.deliver_msg(req["s1"])
        sim.step("s1")
        # let the reader finish (it will issue round 2 for X0)
        run_until_quiescent(sim)
        rec = reader.completed[-1]
        assert rec.reads == {"X0": "x0-new", "X1": "x1-new"}
        # and it really took two rounds
        from repro.analysis.metrics import analyze_transactions

        stats = analyze_transactions(events, system.history(), system.servers)
        assert stats["rot"].rounds == 2
        assert stats["rot"].values_per_object["X0"] == 2  # old + refetch

    def test_one_round_when_no_race(self):
        system = self.build()
        with system.sim.recording() as events:
            do(system, "w", write_only_txn({"X0": "a"}, txid="w1"))
            do(system, "w", write_only_txn({"X1": "b"}, txid="w2"))
            rec = do(system, "r", read_only_txn(("X0", "X1"), txid="rot2"))
        assert rec.reads == {"X0": "a", "X1": "b"}
        from repro.analysis.metrics import analyze_transactions

        stats = analyze_transactions(events, system.history(), system.servers)
        assert stats["rot2"].rounds == 1


# ---------------------------------------------------------------------------
# COPS-SNOW: readers checks keep one-round reads causal
# ---------------------------------------------------------------------------


class TestCopsSnowReadersCheck:
    def build(self):
        return build_system(
            "cops_snow", objects=("X0", "X1"), n_servers=2, clients=("w", "r")
        )

    def test_old_reader_pinned_to_old_snapshot(self, record):
        """The same race as above: COPS-SNOW serves the ROT old values at
        *both* servers — in one round — by hiding the dependent write
        from the ROT that already read the old dependency."""
        system = self.build()
        sim = system.sim
        events = record(sim)
        reader = system.client("r")

        do(system, "w", write_only_txn({"X0": "x0-old"}, txid="pre"))
        sim.invoke("r", read_only_txn(("X0", "X1"), txid="rot"))
        ev = sim.step("r")
        req = {m.dst: m for m in ev.sent}
        sim.deliver_msg(req["s0"])
        sim.step("s0")  # serves x0-old; rot recorded as reader
        do_frozen(system, "w", write_only_txn({"X0": "x0-new"}, txid="w0"),
                  [req["s1"]])
        do_frozen(system, "w", write_only_txn({"X1": "x1-new"}, txid="w1"),
                  [req["s1"]])
        sim.deliver_msg(req["s1"])
        sim.step("s1")  # must hide x1-new from this rot
        run_until_quiescent(sim)
        rec = reader.completed[-1]
        assert rec.reads == {"X0": "x0-old", "X1": None} or rec.reads == {
            "X0": "x0-old",
            "X1": "x1-old",
        } or rec.reads["X1"] is not None and rec.reads["X1"] != "x1-new" or (
            rec.reads["X1"] is None
        ), rec.reads
        # precisely: X1 must NOT be the new dependent value
        assert rec.reads["X1"] != "x1-new"
        from repro.analysis.metrics import analyze_transactions

        stats = analyze_transactions(events, system.history(), system.servers)
        assert stats["rot"].rounds == 1
        assert not stats["rot"].blocked

    def test_writes_hidden_only_from_old_readers(self):
        system = self.build()
        sim = system.sim
        do(system, "w", write_only_txn({"X0": "x0-old"}, txid="pre"))
        # rot1 reads the old X0 while delaying nothing else
        sim.invoke("r", read_only_txn(("X0", "X1"), txid="rot1"))
        ev = sim.step("r")
        req = {m.dst: m for m in ev.sent}
        sim.deliver_msg(req["s0"])
        sim.step("s0")
        do(system, "w", write_only_txn({"X0": "x0-new"}, txid="w0"))
        do(system, "w", write_only_txn({"X1": "x1-new"}, txid="w1"))
        run_until_quiescent(sim)
        # a *fresh* ROT sees both new values
        rec = do(system, "r", read_only_txn(("X0", "X1"), txid="rot2"))
        assert rec.reads == {"X0": "x0-new", "X1": "x1-new"}

    def test_ack_deferred_until_visible(self):
        """A dependent write is acknowledged only after its readers check,
        so a client's next transaction can rely on it being visible."""
        system = self.build()
        sim = system.sim
        do(system, "w", write_only_txn({"X0": "a"}, txid="w0"))
        do(system, "w", write_only_txn({"X1": "b"}, txid="w1"))  # dep on X0
        server = system.server("s1")
        chain = server.versions("X1")
        assert chain[-1].visible
        assert chain[-1].value == "b"


# ---------------------------------------------------------------------------
# snapshot family: blocking vs pre-stabilized
# ---------------------------------------------------------------------------


class TestSnapshotFamily:
    def _race(self, protocol):
        """Writer advances its dependency time; a dependent read at the
        other server exposes blocking (or not)."""
        system = build_system(
            protocol, objects=("X0", "X1"), n_servers=2, clients=("w", "r")
        )
        with system.sim.recording() as events:
            do(system, "w", write_only_txn({"X0": "a"}, txid="w0"))
            rec = do(system, "w", read_only_txn(("X0", "X1"), txid="rot_w"))
            assert rec.reads["X0"] == "a"  # read-your-writes
            rec2 = do(system, "r", read_only_txn(("X0", "X1"), txid="rot_r"))
        from repro.analysis.metrics import analyze_transactions

        stats = analyze_transactions(events, system.history(), system.servers)
        return stats

    @pytest.mark.parametrize("protocol", ["gentlerain", "orbe"])
    def test_fresh_family_blocks_under_dependencies(self, protocol):
        stats = self._race(protocol)
        assert stats["rot_w"].rounds == 2
        # the writer's own ROT pushes its dependency time: blocking occurs
        assert stats["rot_w"].blocked

    @pytest.mark.parametrize("protocol", ["contrarian", "wren"])
    def test_stable_family_never_blocks(self, protocol):
        stats = self._race(protocol)
        assert all(not s.blocked for s in stats.values())
        assert stats["rot_w"].rounds == 2

    @pytest.mark.parametrize(
        "protocol", ["gentlerain", "orbe", "contrarian", "wren", "cure"]
    )
    def test_one_value_per_object(self, protocol):
        stats = self._race(protocol)
        for s in stats.values():
            assert s.max_values_per_object <= 1
            assert s.unrequested_values == 0

    def test_wren_prepared_txn_holds_frontier(self):
        """A prepared-but-uncommitted write transaction must keep the
        stable frontier below its timestamp so snapshots cannot straddle
        the commit."""
        system = build_system(
            "wren", objects=("X0", "X1"), n_servers=2, clients=("w", "r")
        )
        sim = system.sim
        from repro.txn.types import write_only_txn as wtx

        sim.invoke("w", wtx({"X0": "a", "X1": "b"}, txid="big"))
        sim.step("w")  # prepares sent
        for m in list(sim.network.pending(dst="s0")):
            sim.deliver_msg(m)
        sim.step("s0")  # s0 prepared; commit never arrives yet
        server = system.server("s0")
        assert server.prepared
        assert server.local_stable() < server.clock

    def test_cure_vector_snapshot_covers_own_writes(self):
        system = build_system(
            "cure", objects=("X0", "X1"), n_servers=2, clients=("w", "r")
        )
        do(system, "w", write_only_txn({"X0": "a", "X1": "b"}, txid="t"))
        rec = do(system, "w", read_only_txn(("X0", "X1"), txid="r"))
        assert rec.reads == {"X0": "a", "X1": "b"}


# ---------------------------------------------------------------------------
# Spanner: locks, commit-wait, safe time
# ---------------------------------------------------------------------------


class TestSpanner:
    def build(self, eps=4):
        return build_system(
            "spanner",
            objects=("X0", "X1"),
            n_servers=2,
            clients=("w1", "w2", "r"),
            epsilon=eps,
        )

    def test_commit_wait_enforced(self):
        system = self.build(eps=6)
        sim = system.sim
        before = sim.event_count
        do(system, "w1", write_only_txn({"X0": "a", "X1": "b"}, txid="t"))
        # commit-wait forces the wall clock past commit_ts: many events
        assert sim.event_count - before > 6

    def test_read_blocks_behind_prepared(self, record):
        system = self.build()
        sim = system.sim
        events = record(sim)
        sim.invoke("w1", write_only_txn({"X0": "a", "X1": "b"}, txid="big"))
        sim.step("w1")
        m = sim.network.pending(dst="s0")[0]
        sim.deliver_msg(m)
        sim.step("s0")  # coordinator s0 starts 2PC; prepares locally
        server = system.server("s0")
        assert server.prepared_ts or server.coordinating
        # a ROT now must wait behind the prepare; whichever side of the
        # commit timestamp its read_ts lands on, the snapshot is whole
        rec = do(system, "r", read_only_txn(("X0", "X1"), txid="rot"))
        assert rec.reads in (
            {"X0": BOTTOM, "X1": BOTTOM},
            {"X0": "a", "X1": "b"},
        )
        rec2 = do(system, "r", read_only_txn(("X0", "X1"), txid="rot2"))
        assert rec2.reads == {"X0": "a", "X1": "b"}
        from repro.analysis.metrics import analyze_transactions

        stats = analyze_transactions(events, system.history(), system.servers)
        assert stats["rot"].rounds == 1  # single round...
        assert stats["rot"].blocked  # ...but blocking

    def test_conflicting_writes_serialized_by_locks(self):
        system = self.build()
        do(system, "w1", write_only_txn({"X0": "a1", "X1": "b1"}, txid="w3"))
        do(system, "w2", write_only_txn({"X0": "a2", "X1": "b2"}, txid="w4"))
        rec = do(system, "r", read_only_txn(("X0", "X1"), txid="r5"))
        assert rec.reads in (
            {"X0": "a1", "X1": "b1"},
            {"X0": "a2", "X1": "b2"},
        )

    def test_strict_serializability_verified(self):
        from repro.consistency import check_strict_serializable

        system = self.build()
        do(system, "w1", write_only_txn({"X0": "a1", "X1": "b1"}, txid="w3"))
        do(system, "r", read_only_txn(("X0", "X1"), txid="r4"))
        do(system, "w2", write_only_txn({"X1": "b2"}, txid="w5"))
        do(system, "r", read_only_txn(("X0", "X1"), txid="r6"))
        res = check_strict_serializable(system.history())
        assert res.serializable

    def test_rw_transaction(self):
        system = self.build()
        do(system, "w1", write_only_txn({"X0": "10"}, txid="w3"))
        from repro.txn.types import rw_txn

        rec = do(system, "w2", rw_txn(["X0"], {"X1": "derived"}, txid="rw4"))
        assert rec.reads["X0"] == "10"
        rec2 = do(system, "r", read_only_txn(("X0", "X1"), txid="r5"))
        assert rec2.reads["X1"] == "derived"

    def test_no_deadlock_on_crossed_transactions(self):
        # two rw transactions with opposite object orders; sorted-server
        # sequential prepares must prevent deadlock
        system = self.build()
        sim = system.sim
        from repro.txn.types import rw_txn

        sim.invoke("w1", rw_txn(["X0"], {"X1": "a"}, txid="t1"))
        sim.invoke("w2", rw_txn(["X1"], {"X0": "b"}, txid="t2"))
        run_until_quiescent(sim, max_events=100_000)
        assert len(system.client("w1").completed) == 1
        assert len(system.client("w2").completed) == 1


# ---------------------------------------------------------------------------
# Calvin: global order, gap buffering
# ---------------------------------------------------------------------------


class TestCalvin:
    def build(self):
        return build_system(
            "calvin", objects=("X0", "X1"), n_servers=2, clients=("a", "b", "r")
        )

    def test_all_servers_apply_same_order(self):
        system = self.build()
        do(system, "a", write_only_txn({"X0": "a1", "X1": "a2"}, txid="w1"))
        do(system, "b", write_only_txn({"X0": "b1", "X1": "b2"}, txid="w2"))
        rec = do(system, "r", read_only_txn(("X0", "X1"), txid="r3"))
        assert rec.reads in (
            {"X0": "a1", "X1": "a2"},
            {"X0": "b1", "X1": "b2"},
        )

    def test_out_of_order_batch_buffered(self):
        system = self.build()
        sim = system.sim
        # two transactions through the sequencer in separate batches
        sim.invoke("a", write_only_txn({"X0": "first"}, txid="t1"))
        sim.step("a")
        sim.deliver_msg(sim.network.pending(dst="seq0")[0])
        sim.step("seq0")  # batch 1 sent
        sim.invoke("b", write_only_txn({"X0": "second"}, txid="t2"))
        sim.step("b")
        sim.deliver_msg(sim.network.pending(dst="seq0")[0])
        sim.step("seq0")  # batch 2 sent
        batches = sim.network.pending(src="seq0", dst="s0")
        assert len(batches) == 2
        # deliver the SECOND batch first: the server must buffer it
        sim.deliver_msg(batches[1])
        sim.step("s0")
        server = system.server("s0")
        assert server.buffered and server.next_slot == 0
        assert server.latest("X0").value != "second"
        sim.deliver_msg(batches[0])
        sim.step("s0")
        assert not server.buffered
        assert server.latest("X0").value == "second"

    def test_strict_serializability(self):
        from repro.consistency import check_strict_serializable

        system = self.build()
        do(system, "a", write_only_txn({"X0": "1", "X1": "1"}, txid="w1"))
        do(system, "r", read_only_txn(("X0", "X1"), txid="r2"))
        do(system, "b", write_only_txn({"X0": "2"}, txid="w3"))
        do(system, "r", read_only_txn(("X0", "X1"), txid="r4"))
        assert check_strict_serializable(system.history()).serializable


# ---------------------------------------------------------------------------
# RAMP & Eiger: fractured-read repair
# ---------------------------------------------------------------------------


class TestAtomicVisibilityRepair:
    @pytest.mark.parametrize("protocol", ["ramp", "eiger"])
    def test_read_racing_commit_is_repaired(self, protocol):
        """Deliver a ROT's two requests on either side of a commit: the
        second round must repair the torn snapshot."""
        system = build_system(
            protocol, objects=("X0", "X1"), n_servers=2, clients=("w", "r")
        )
        sim = system.sim
        do(system, "w", write_only_txn({"X0": "a0", "X1": "b0"}, txid="t0"))
        sim.invoke("r", read_only_txn(("X0", "X1"), txid="rot"))
        ev = sim.step("r")
        req = {m.dst: m for m in ev.sent}
        sim.deliver_msg(req["s0"])
        sim.step("s0")  # old X0 served
        do_frozen(system, "w", write_only_txn({"X0": "a1", "X1": "b1"}, txid="t1"),
                  [req["s1"]])
        sim.deliver_msg(req["s1"])
        sim.step("s1")  # new X1 served, with sibling metadata
        run_until_quiescent(sim)
        rec = system.client("r").completed[-1]
        # read atomicity: if it saw b1 it must have repaired X0 to a1
        if rec.reads["X1"] == "b1":
            assert rec.reads["X0"] == "a1"

    @pytest.mark.parametrize("protocol", ["ramp", "eiger"])
    def test_fetch_from_prepared(self, protocol):
        """Round-2 fetch by exact version must be served even if the
        commit message has not arrived at that server (non-blocking)."""
        system = build_system(
            protocol, objects=("X0", "X1"), n_servers=2, clients=("w", "r")
        )
        sim = system.sim
        do(system, "w", write_only_txn({"X0": "a0", "X1": "b0"}, txid="t0"))
        # start the second write txn but withhold s0's COMMIT
        sim.invoke("w", write_only_txn({"X0": "a1", "X1": "b1"}, txid="t1"))
        guard = 0
        while len(system.client("w").completed) < 2 and guard < 1000:
            guard += 1
            # deliver everything except commit messages to s0
            progressed = False
            for m in sim.network.pending():
                from repro.protocols.base import WriteRequest

                if (
                    isinstance(m.payload, WriteRequest)
                    and m.payload.kind == "commit"
                    and m.dst == "s0"
                ):
                    continue
                sim.deliver_msg(m)
                progressed = True
            for pid in ("w", "s0", "s1"):
                if sim.network.income[pid]:
                    sim.step(pid)
                    progressed = True
            if not progressed:
                break
        # t1 cannot complete (s0's commit withheld); but s1 committed it.
        rec = do(system, "r", read_only_txn(("X0", "X1"), txid="rot"))
        if rec.reads["X1"] == "b1":
            assert rec.reads["X0"] == "a1"  # served from s0's prepared set

    def test_ramp_history_read_atomic(self):
        from repro.consistency import check_read_atomic

        system = build_system(
            "ramp", objects=("X0", "X1", "X2"), n_servers=2,
            clients=("w", "r1", "r2"),
        )
        do(system, "w", write_only_txn({"X0": "a", "X1": "b"}, txid="w1"))
        do(system, "r1", read_only_txn(("X0", "X1"), txid="r3"))
        do(system, "w", write_only_txn({"X1": "b2", "X2": "c2"}, txid="w4"))
        do(system, "r2", read_only_txn(("X1", "X2"), txid="r5"))
        assert check_read_atomic(system.history())


# ---------------------------------------------------------------------------
# COPS-RW: the N+R+W sketch ships values wholesale
# ---------------------------------------------------------------------------


class TestCopsRw:
    def test_one_round_causal_via_attachments(self, record):
        system = build_system(
            "cops_rw", objects=("X0", "X1"), n_servers=2, clients=("w", "r")
        )
        sim = system.sim
        events = record(sim)
        do(system, "w", write_only_txn({"X0": "x0-old"}, txid="pre"))
        sim.invoke("r", read_only_txn(("X0", "X1"), txid="rot"))
        ev = sim.step("r")
        req = {m.dst: m for m in ev.sent}
        sim.deliver_msg(req["s0"])
        sim.step("s0")  # old X0 served
        do_frozen(
            system, "w",
            write_only_txn({"X0": "x0-new", "X1": "x1-new"}, txid="t"),
            [req["s1"]],
        )
        sim.deliver_msg(req["s1"])
        sim.step("s1")  # new X1 + attached sibling x0-new
        run_until_quiescent(sim)
        rec = system.client("r").completed[-1]
        # the client repairs X0 from the attachment: still one round
        assert rec.reads == {"X0": "x0-new", "X1": "x1-new"}
        from repro.analysis.metrics import analyze_transactions

        stats = analyze_transactions(events, system.history(), system.servers)
        assert stats["rot"].rounds == 1
        assert not stats["rot"].blocked
        # ... and the one-value property is duly violated
        assert (
            stats["rot"].max_values_per_object > 1
            or stats["rot"].unrequested_values > 0
        )
