"""Space-time renderer tests."""

from repro.analysis import render_spacetime
from repro.sim.executor import Simulation

from helpers import Echo, Pinger


class TestRenderSpacetime:
    def make(self):
        sim = Simulation([Pinger("p", "e", n=1), Echo("e")])
        with sim.recording() as events:
            sim.step("p")
            sim.deliver("p", "e")
            sim.step("e")
        return events

    def test_auto_pid_discovery(self):
        out = render_spacetime(self.make())
        assert "p" in out.splitlines()[0] and "e" in out.splitlines()[0]

    def test_slicing(self):
        events = self.make()
        full = render_spacetime(events, pids=("p", "e"))
        sliced = render_spacetime(events[1:], pids=("p", "e"))
        assert len(sliced.splitlines()) == len(full.splitlines()) - 1

    def test_width(self):
        events = self.make()
        narrow = render_spacetime(events, pids=("p", "e"), width=8)
        wide = render_spacetime(events, pids=("p", "e"), width=30)
        assert len(wide.splitlines()[0]) > len(narrow.splitlines()[0])

    def test_unknown_pids_ignored(self):
        out = render_spacetime(self.make(), pids=("ghost",))
        assert "ghost" in out
