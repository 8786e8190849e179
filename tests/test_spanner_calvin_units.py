"""Deeper unit tests for the strong-consistency protocols' internals:
Spanner's lock manager / TrueTime interplay and Calvin's sequencer."""

import pytest

from repro.protocols import build_system
from repro.protocols.calvin import CalvinSequencer, CalvinSubmit
from repro.protocols.spanner import QueuedPrepare, SpannerServer, TwoPhaseState
from repro.sim.executor import Simulation
from repro.sim.process import NullProcess
from repro.sim.scheduler import RoundRobinScheduler, run_until_quiescent
from repro.txn.types import read_only_txn, rw_txn, write_only_txn


def mkserver(eps=4):
    placement = {"X0": ("s0",), "X1": ("s1",)}
    return SpannerServer("s0", ("X0",), ("s0", "s1"), placement, epsilon=eps)


class TestSpannerLocks:
    def qp(self, txid, objs):
        return QueuedPrepare(
            txid=txid, objects=tuple(objs), items=(), reads=(), reply_to="s0"
        )

    def test_acquire_and_conflict(self):
        s = mkserver()
        assert s._try_acquire(self.qp("t1", ["X0"]))
        assert not s._try_acquire(self.qp("t2", ["X0"]))
        s._release("t1")
        assert s._try_acquire(self.qp("t2", ["X0"]))

    def test_all_or_nothing_acquisition(self):
        s = mkserver()
        assert s._try_acquire(self.qp("t1", ["X0"]))
        # t2 wants X0 and Y: neither is taken
        assert not s._try_acquire(self.qp("t2", ["X0", "Y"]))
        assert "Y" not in s.locks

    def test_prepare_ts_monotonic(self):
        s = mkserver()
        s._wall = 10
        a = s._new_prepare_ts()
        b = s._new_prepare_ts()
        assert b > a

    def test_safe_to_read_requires_tt_after(self):
        s = mkserver(eps=4)
        s._wall = 0
        assert not s._safe_to_read(100)
        s._wall = 200
        assert s._safe_to_read(100)

    def test_prepared_txn_blocks_reads_below(self):
        s = mkserver(eps=0)
        s._wall = 100
        s.prepared_ts["t"] = 50
        assert not s._safe_to_read(60)  # t could commit at <= 60
        assert not s._safe_to_read(50)
        s.prepared_ts.clear()
        assert s._safe_to_read(60)


class TestSpannerEndToEnd:
    def test_external_consistency(self):
        """A transaction that starts after another commits must see it
        (commit-wait guarantees it) — checked via real-time ordering."""
        system = build_system(
            "spanner", objects=("X0", "X1"), n_servers=2, clients=("a", "b")
        )
        sched = RoundRobinScheduler()
        system.execute("a", write_only_txn({"X0": "1", "X1": "1"}, txid="w1"), scheduler=sched)
        rec = system.execute("b", read_only_txn(("X0", "X1"), txid="r2"), scheduler=sched)
        assert rec.reads == {"X0": "1", "X1": "1"}

    def test_epsilon_zero_still_correct(self):
        system = build_system(
            "spanner", objects=("X0", "X1"), n_servers=2, clients=("a", "b"),
            epsilon=0,
        )
        sched = RoundRobinScheduler()
        system.execute("a", write_only_txn({"X0": "1", "X1": "2"}, txid="w1"), scheduler=sched)
        rec = system.execute("b", read_only_txn(("X0", "X1"), txid="r2"), scheduler=sched)
        assert rec.reads == {"X0": "1", "X1": "2"}

    def test_larger_epsilon_costs_more_commit_wait(self):
        def commit_events(eps):
            system = build_system(
                "spanner", objects=("X0", "X1"), n_servers=2, clients=("a",),
                epsilon=eps,
            )
            before = system.sim.event_count
            system.execute(
                "a",
                write_only_txn({"X0": "1", "X1": "2"}, txid="w1"),
                scheduler=RoundRobinScheduler(),
            )
            return system.sim.event_count - before

        assert commit_events(12) > commit_events(0)


class TestCalvinSequencer:
    def make(self):
        placement = {"X0": ("s0",), "X1": ("s1",)}
        seq = CalvinSequencer("seq0", ("s0", "s1"), placement)
        sim = Simulation([seq, NullProcess("s0"), NullProcess("s1"),
                          NullProcess("c0")])
        return sim, seq

    def submit(self, sim, txid, reads=(), writes=()):
        sub = CalvinSubmit(txid=txid, reads=tuple(reads), writes=tuple(writes),
                           client="c0")
        from repro.sim.messages import Message

        seq_n = sim.network.next_link_seq("c0", "seq0")
        sim.network.post(Message(900 + seq_n, "c0", "seq0", seq_n, sub))
        sim.deliver("c0", "seq0", seq_n)

    def test_global_sequence_increments(self):
        sim, seq = self.make()
        self.submit(sim, "t1", writes=(("X0", "a"),))
        sim.step("seq0")
        self.submit(sim, "t2", writes=(("X0", "b"),))
        sim.step("seq0")
        assert seq.global_seq == 2
        assert seq.slot_counters["s0"] == 2
        assert seq.slot_counters["s1"] == 0

    def test_batch_covers_only_involved_servers(self):
        sim, seq = self.make()
        self.submit(sim, "t1", reads=("X1",))
        sim.step("seq0")
        assert sim.network.pending(src="seq0", dst="s1")
        assert not sim.network.pending(src="seq0", dst="s0")

    def test_multi_txn_batch_in_one_message(self):
        sim, seq = self.make()
        self.submit(sim, "t1", writes=(("X0", "a"),))
        self.submit(sim, "t2", writes=(("X0", "b"),))
        sim.step("seq0")
        batches = sim.network.pending(src="seq0", dst="s0")
        assert len(batches) == 1
        assert len(batches[0].payload.data["entries"]) == 2

    def test_rw_transaction_end_to_end(self):
        system = build_system(
            "calvin", objects=("X0", "X1"), n_servers=2, clients=("a", "b")
        )
        sched = RoundRobinScheduler()
        system.execute("a", write_only_txn({"X0": "10"}, txid="w1"), scheduler=sched)
        rec = system.execute("b", rw_txn(["X0"], {"X1": "copy"}, txid="rw2"), scheduler=sched)
        assert rec.reads["X0"] == "10"
        rec2 = system.execute("a", read_only_txn(("X1",), txid="r3"), scheduler=sched)
        assert rec2.reads["X1"] == "copy"
