"""Figure renderer internals and figure2 content."""

from repro.analysis.figures import _lane_diagram, figure2
from repro.sim.executor import Simulation

from helpers import Echo, Pinger


class TestLaneDiagram:
    def make_events(self):
        sim = Simulation([Pinger("p", "e", n=1), Echo("e")])
        with sim.recording() as events:
            sim.step("p")
            sim.deliver("p", "e")
            sim.step("e")
        return events

    def test_one_line_per_event(self):
        events = self.make_events()
        lines = _lane_diagram(events, ("p", "e"))
        # header + separator + one line per event
        assert len(lines) == 2 + len(events)

    def test_columns_show_activity(self):
        events = self.make_events()
        lines = _lane_diagram(events, ("p", "e"))
        body = "\n".join(lines)
        assert "step" in body and "<~" in body

    def test_unknown_pid_column_empty(self):
        events = self.make_events()
        lines = _lane_diagram(events, ("p", "e", "ghost"))
        assert "ghost" in lines[0]


class TestFigure2Content:
    def test_construction_values_differ(self):
        out = figure2("fastclaim")
        # Construction 1 yields initial values, Construction 2 new values
        first, second = out.split("Construction 2")
        assert "X0:init" in first and "X0:new" not in first.split("⇒")[-1]
        assert "X0:new" in second
