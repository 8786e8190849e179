"""Unit tests for the simulator substrate: messages, processes, network,
executor (steps, deliveries, snapshots, replay)."""

import copy

import pytest

from repro.sim.events import Deliver, Step
from repro.sim.executor import ReplayError, Simulation
from repro.sim.messages import Message, Payload
from repro.sim.network import Network
from repro.sim.process import NullProcess, Process, StepContext
from repro.sim.trace import DeliverEvent, StepEvent

from helpers import Echo, Note, Pinger


# ---------------------------------------------------------------------------
# StepContext rules
# ---------------------------------------------------------------------------


class TestStepContext:
    def test_send_records_payload(self):
        ctx = StepContext("a", ["b", "c"], 1)
        ctx.send("b", Note(1))
        assert ctx.sends == [("b", Note(1))] or len(ctx.sends) == 1

    def test_one_message_per_neighbor(self):
        ctx = StepContext("a", ["b"], 1)
        ctx.send("b", Note(1))
        with pytest.raises(ValueError, match="second send"):
            ctx.send("b", Note(2))

    def test_no_self_send(self):
        ctx = StepContext("a", ["b"], 1)
        with pytest.raises(ValueError, match="itself"):
            ctx.send("a", Note(1))

    def test_no_send_to_stranger(self):
        ctx = StepContext("a", ["b"], 1)
        with pytest.raises(ValueError, match="no link"):
            ctx.send("z", Note(1))

    def test_sent_to(self):
        ctx = StepContext("a", ["b", "c"], 1)
        assert not ctx.sent_to("b")
        ctx.send("b", Note(1))
        assert ctx.sent_to("b")
        assert not ctx.sent_to("c")


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------


class TestNetwork:
    def make(self):
        return Network(["a", "b", "c"])

    def test_rejects_duplicate_pids(self):
        with pytest.raises(ValueError):
            Network(["a", "a"])

    def test_post_and_deliver(self):
        net = self.make()
        m = Message(0, "a", "b", 0, Note(1))
        net.post(m)
        assert net.n_in_transit() == 1
        out = net.deliver("a", "b", 0)
        assert out is m
        assert net.income["b"] == [m]
        assert net.n_in_transit() == 0

    def test_link_seq_enforced(self):
        net = self.make()
        with pytest.raises(ValueError, match="link_seq"):
            net.post(Message(0, "a", "b", 5, Note(1)))

    def test_link_seq_per_link(self):
        net = self.make()
        net.post(Message(0, "a", "b", 0, Note(1)))
        net.post(Message(1, "a", "c", 0, Note(2)))  # independent counter
        net.post(Message(2, "a", "b", 1, Note(3)))
        assert net.next_link_seq("a", "b") == 2
        assert net.next_link_seq("a", "c") == 1

    def test_non_fifo_delivery(self):
        net = self.make()
        net.post(Message(0, "a", "b", 0, Note("first")))
        net.post(Message(1, "a", "b", 1, Note("second")))
        out = net.deliver("a", "b", 1)  # deliver the later message first
        assert out.payload.token == "second"
        assert net.find("a", "b", 0) is not None

    def test_deliver_missing_raises(self):
        net = self.make()
        with pytest.raises(KeyError):
            net.deliver("a", "b", 0)

    def test_pending_filters(self):
        net = self.make()
        net.post(Message(0, "a", "b", 0, Note(1)))
        net.post(Message(1, "a", "c", 0, Note(2)))
        assert len(net.pending()) == 2
        assert len(net.pending(dst="b")) == 1
        assert len(net.pending(src="a")) == 2
        assert net.pending(src="b") == []

    def test_drain_income(self):
        net = self.make()
        net.post(Message(0, "a", "b", 0, Note(1)))
        net.deliver("a", "b", 0)
        msgs = net.drain_income("b")
        assert len(msgs) == 1
        assert net.drain_income("b") == []

    def test_idle(self):
        net = self.make()
        assert net.idle()
        net.post(Message(0, "a", "b", 0, Note(1)))
        assert not net.idle()
        net.deliver("a", "b", 0)
        assert not net.idle()  # undelivered income
        net.drain_income("b")
        assert net.idle()


# ---------------------------------------------------------------------------
# Simulation: events
# ---------------------------------------------------------------------------


class TestSimulationEvents:
    def make(self):
        return Simulation([Pinger("p", "e", n=2), Echo("e")])

    def test_duplicate_pids_rejected(self):
        with pytest.raises(ValueError):
            Simulation([NullProcess("x"), NullProcess("x")])

    def test_step_sends(self):
        sim = self.make()
        ev = sim.step("p")
        assert isinstance(ev, StepEvent)
        assert len(ev.sent) == 1
        assert sim.network.n_in_transit() == 1

    def test_step_consumes_all_income(self):
        sim = self.make()
        sim.step("p")
        sim.step("p")
        sim.deliver("p", "e")
        sim.deliver("p", "e")
        ev = sim.step("e")
        assert len(ev.received) == 2
        assert sim.processes["e"].seen == [2, 1]

    def test_deliver_default_oldest(self):
        sim = self.make()
        sim.step("p")  # Note(2)
        sim.step("p")  # Note(1)
        m = sim.deliver("p", "e")
        assert m.payload.token == 2

    def test_deliver_missing_raises_replayerror(self):
        sim = self.make()
        with pytest.raises(ReplayError):
            sim.deliver("p", "e")

    def test_echo_roundtrip(self):
        sim = self.make()
        sim.step("p")
        sim.deliver("p", "e")
        sim.step("e")
        sim.deliver("e", "p")
        sim.step("p")
        assert sim.processes["p"].got == [("echo", 2)]

    def test_invoke_requires_on_invoke(self):
        sim = self.make()
        with pytest.raises(TypeError):
            sim.invoke("e", object())

    def test_event_count_advances(self):
        sim = self.make()
        c0 = sim.event_count
        sim.step("p")
        sim.deliver("p", "e")
        assert sim.event_count == c0 + 2


# ---------------------------------------------------------------------------
# Simulation: snapshot / restore / replay
# ---------------------------------------------------------------------------


class TestSnapshotRestore:
    def test_restore_rolls_back_state(self):
        sim = Simulation([Pinger("p", "e", n=3), Echo("e")])
        snap = sim.snapshot()
        sim.step("p")
        sim.deliver("p", "e")
        sim.step("e")
        assert sim.processes["e"].seen == [3]
        sim.restore(snap)
        assert sim.processes["e"].seen == []
        assert sim.network.idle()
        assert sim.processes["p"].remaining == 3

    def test_snapshot_isolated_from_future_mutation(self):
        sim = Simulation([Pinger("p", "e", n=1), Echo("e")])
        snap = sim.snapshot()
        sim.step("p")
        assert snap.processes["p"].remaining == 1

    def test_restore_is_forked_each_time(self):
        sim = Simulation([Pinger("p", "e", n=2), Echo("e")])
        snap = sim.snapshot()
        sim.restore(snap)
        sim.step("p")
        sim.restore(snap)
        # the second restore must not see the first branch's mutation
        assert sim.processes["p"].remaining == 2

    def test_msg_ids_roll_back(self):
        sim = Simulation([Pinger("p", "e", n=2), Echo("e")])
        snap = sim.snapshot()
        ev1 = sim.step("p")
        first_id = ev1.sent[0].msg_id
        sim.restore(snap)
        ev2 = sim.step("p")
        assert ev2.sent[0].msg_id == first_id

    def test_window_not_rewound_by_restore(self):
        sim = Simulation([Pinger("p", "e", n=2), Echo("e")])
        snap = sim.snapshot()
        with sim.recording() as events:
            first = sim.step("p")
            sim.restore(snap)
            second = sim.step("p")
        assert len(events) == 2 and events[0] is first and events[1] is second
        assert (first.index, second.index) == (0, 1)  # the counter is not rewound


class TestReplay:
    def script(self):
        return [
            Step("p"),
            Deliver("p", "e", 0),
            Step("e"),
            Deliver("e", "p", 0),
            Step("p"),
        ]

    def test_replay_reproduces_execution(self):
        sim = Simulation([Pinger("p", "e", n=2), Echo("e")])
        sim.replay(self.script())
        assert sim.processes["p"].got == [("echo", 2)]

    def test_replay_determinism(self):
        results = []
        for _ in range(2):
            sim = Simulation([Pinger("p", "e", n=2), Echo("e")])
            sim.replay(self.script())
            results.append(
                (sim.processes["p"].got, sim.processes["e"].seen, sim.event_count)
            )
        assert results[0] == results[1]

    def test_recorded_log_replays_identically(self):
        sim = Simulation([Pinger("p", "e", n=2), Echo("e")])
        snap = sim.snapshot()
        with sim.recording() as recorded:
            sim.replay(self.script())
        state_a = (sim.processes["p"].got, sim.processes["e"].seen)
        sim.restore(snap)
        sim.replay(recorded)
        assert (sim.processes["p"].got, sim.processes["e"].seen) == state_a

    def test_strict_replay_raises_on_missing_message(self):
        sim = Simulation([Pinger("p", "e", n=2), Echo("e")])
        with pytest.raises(ReplayError):
            sim.replay([Deliver("p", "e", 0)])

    def test_lenient_replay_skips(self):
        sim = Simulation([Pinger("p", "e", n=2), Echo("e")])
        skipped = sim.replay([Deliver("p", "e", 0), Step("p")], strict=False)
        assert skipped == [Deliver("p", "e", 0)]
        assert sim.processes["p"].remaining == 1

    def test_filtered_replay_structural_addressing(self):
        # removing one sender's steps must not perturb other links' seqs
        sim = Simulation([Pinger("a", "e", n=1), Pinger("b", "e", n=1), Echo("e")])
        with sim.recording() as events:
            sim.step("a")
            sim.step("b")
        kept = [e for e in events if not (isinstance(e, StepEvent) and e.pid == "a")]
        sim2 = Simulation([Pinger("a", "e", n=1), Pinger("b", "e", n=1), Echo("e")])
        sim2.replay(kept + [Deliver("b", "e", 0), Step("e")])
        assert sim2.processes["e"].seen == [1]
