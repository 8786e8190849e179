"""Scheduler fairness/restriction and the trace cursor."""

import pytest

from repro.sim.executor import Simulation
from repro.sim.process import NullProcess
from repro.sim.scheduler import (
    RandomScheduler,
    RoundRobinScheduler,
    SchedulerStalled,
    run_until_quiescent,
)

from helpers import Echo, Pinger


class TestRoundRobin:
    def test_quiesces_echo_pair(self):
        sim = Simulation([Pinger("p", "e", n=3), Echo("e")])
        n = run_until_quiescent(sim)
        assert n > 0
        assert sim.quiescent()
        assert sim.processes["p"].got == [("echo", 3), ("echo", 2), ("echo", 1)]

    def test_tick_false_when_nothing_to_do(self):
        sim = Simulation([NullProcess("a"), NullProcess("b")])
        assert RoundRobinScheduler().tick(sim) is False

    def test_until_predicate_stops_early(self):
        sim = Simulation([Pinger("p", "e", n=5), Echo("e")])
        sched = RoundRobinScheduler()
        sched.run(sim, until=lambda s: len(s.processes["p"].got) >= 1)
        assert len(sim.processes["p"].got) == 1

    def test_budget_exhaustion_raises(self):
        sim = Simulation([Pinger("p", "e", n=100), Echo("e")])
        with pytest.raises(SchedulerStalled):
            RoundRobinScheduler().run(sim, until=lambda s: False, max_events=10)

    def test_unreachable_goal_raises_at_quiescence(self):
        sim = Simulation([Pinger("p", "e", n=1), Echo("e")])
        with pytest.raises(SchedulerStalled):
            RoundRobinScheduler().run(sim, until=lambda s: False, max_events=10_000)

    def test_restriction_withholds_messages(self):
        sim = Simulation([Pinger("p", "e", n=1), Echo("e"), NullProcess("z")])
        run_until_quiescent(sim, pids=["p"])  # e excluded: message undelivered
        assert sim.network.n_in_transit() == 1
        assert sim.processes["e"].seen == []

    def test_restricted_quiescence_then_full(self):
        sim = Simulation([Pinger("p", "e", n=1), Echo("e")])
        run_until_quiescent(sim, pids=["p"])
        assert not sim.quiescent()  # message in transit globally
        run_until_quiescent(sim)
        assert sim.quiescent()


class TestRandomScheduler:
    def test_seeded_determinism(self):
        def run(seed):
            sim = Simulation([Pinger("p", "e", n=4), Echo("e")])
            with sim.recording() as events:
                RandomScheduler(seed).run(sim, max_events=10_000)
            return [repr(e) for e in events]

        assert run(3) == run(3)

    def test_different_seeds_can_differ(self):
        def run(seed):
            sim = Simulation(
                [Pinger("a", "e", n=3), Pinger("b", "e", n=3), Echo("e")]
            )
            RandomScheduler(seed).run(sim, max_events=10_000)
            return sim.processes["e"].seen

        outcomes = {tuple(run(s)) for s in range(8)}
        assert len(outcomes) > 1  # the adversary genuinely reorders

    def test_completes_workload(self):
        sim = Simulation([Pinger("p", "e", n=5), Echo("e")])
        RandomScheduler(0).run(sim, max_events=10_000)
        assert sorted(sim.processes["e"].seen, reverse=True) == [5, 4, 3, 2, 1]


class TestTraceQueries:
    def test_window_holds_what_it_saw(self):
        sim = Simulation([Pinger("p", "e", n=1), Echo("e")])
        sim.step("p")
        with sim.recording() as events:
            sim.deliver("p", "e")
        assert [type(e).__name__ for e in events] == ["DeliverEvent"]
