"""Bounded model checker tests (small scopes to stay fast)."""

import pytest

from repro.core.explore import ExplorationResult, explore, explore_write_read_race
from repro.protocols import build_system
from repro.txn.types import read_only_txn, write_only_txn


class TestExploreBasics:
    def test_single_write_single_schedule_family(self):
        system = build_system(
            "fastclaim", objects=("X0",), n_servers=1, clients=("c0",)
        )
        res = explore(
            system,
            [("c0", write_only_txn({"X0": "v"}, txid="t"))],
            max_depth=10,
        )
        assert res.schedules_completed >= 1
        assert not res.violation_found
        assert res.states_visited > 0

    def test_dedup_prunes_states(self):
        # two independent clients: many interleavings collapse to few states
        system = build_system(
            "fastclaim", objects=("X0", "X1"), n_servers=2, clients=("c0", "c1")
        )
        res = explore(
            system,
            [
                ("c0", write_only_txn({"X0": "a"}, txid="t0")),
                ("c1", write_only_txn({"X1": "b"}, txid="t1")),
            ],
            max_depth=20,
        )
        assert res.schedules_completed >= 1
        # without dedup the tree would be thousands of nodes
        assert res.states_visited < 3000

    def test_depth_bound_reported(self):
        system = build_system(
            "fastclaim", objects=("X0",), n_servers=1, clients=("c0",)
        )
        res = explore(
            system,
            [("c0", write_only_txn({"X0": "v"}, txid="t"))],
            max_depth=2,
        )
        assert res.truncated > 0
        assert res.schedules_completed == 0

    def test_describe(self):
        res = ExplorationResult(
            protocol="p", states_visited=5, schedules_completed=2, truncated=0
        )
        assert "no causal violation" in res.describe()


class TestRaceScript:
    @pytest.mark.parametrize("objects", [("A", "B"), ("X0", "X1", "X2")])
    def test_no_write_txns_writes_every_object_once(self, objects, monkeypatch):
        """cops has no multi-object write transactions: the race writes
        each object in a single write of its own, whatever the objects
        are called and however many there are, then reads them all."""
        import repro.core.explore as explore_mod

        scripts = []

        def capture(system, script, **knobs):
            scripts.append(script)
            return ExplorationResult(protocol="cops")

        monkeypatch.setattr(explore_mod, "explore", capture)
        explore_write_read_race("cops", objects=objects, n_servers=len(objects))
        (script,) = scripts
        assert [(c, t.txid, t.write_map, t.read_set) for c, t in script] == [
            ("cw", f"Tw{i}", {obj: f"{obj}:new"}, ()) for i, obj in enumerate(objects)
        ] + [("cr0", "Tr", {}, objects)]


@pytest.mark.slow
class TestExploreFindsTheAnomaly:
    def test_fastclaim_violating_schedule_found(self):
        res = explore_write_read_race(
            "fastclaim", max_depth=30, max_states=60_000
        )
        assert res.violation_found, res.describe()
        schedule, anomalies = res.violations[0]
        assert any("deliver" in s for s in schedule)
        assert anomalies
        # the anomaly is the Lemma-1 pattern: Tw's write missed
        assert any(a.fresher_writer == "Tw" for a in anomalies)

    def test_handshake_violating_schedule_found(self):
        res = explore_write_read_race(
            "handshake", max_depth=30, max_states=80_000, sync_hops=1
        )
        assert res.violation_found, res.describe()


@pytest.mark.slow
class TestExploreVerifiesHonest:
    @pytest.mark.parametrize("protocol", ["cops", "wren"])
    def test_no_violation_within_scope(self, protocol):
        res = explore_write_read_race(
            protocol, max_depth=22, max_states=6_000
        )
        assert not res.violation_found, res.describe()
        assert res.states_visited > 50
