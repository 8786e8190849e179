"""System construction, placement, Store facade, registry, witnesses."""

import pytest

from repro import Store
from repro.core.witness import (
    CAUSAL_VIOLATION,
    MixedReadWitness,
    TheoremVerdict,
)
from repro.protocols import (
    REGISTRY,
    build_system,
    default_placement,
    get_protocol,
    protocol_names,
)
from repro.protocols.base import TransactionIncomplete
from repro.sim.scheduler import RoundRobinScheduler
from repro.txn.types import BOTTOM, read_only_txn, write_only_txn


class TestPlacement:
    def test_round_robin(self):
        p = default_placement(("A", "B", "C"), ("s0", "s1"))
        assert p == {"A": ("s0",), "B": ("s1",), "C": ("s0",)}

    def test_replication(self):
        p = default_placement(("A", "B"), ("s0", "s1", "s2"), replication=2)
        assert p["A"] == ("s0", "s1")
        assert p["B"] == ("s1", "s2")

    def test_replication_bounds(self):
        with pytest.raises(ValueError):
            default_placement(("A",), ("s0",), replication=2)
        with pytest.raises(ValueError):
            default_placement(("A",), ("s0",), replication=0)


class TestBuildSystem:
    def test_unknown_protocol(self):
        with pytest.raises(KeyError, match="unknown protocol"):
            build_system("nope")

    def test_placement_validation_missing_object(self):
        with pytest.raises(ValueError, match="missing from placement"):
            build_system(
                "fastclaim", objects=("A", "B"), placement={"A": ("s0",)}
            )

    def test_placement_validation_unknown_server(self):
        with pytest.raises(ValueError, match="unknown server"):
            build_system(
                "fastclaim",
                objects=("A",),
                placement={"A": ("s9",)},
            )

    def test_custom_placement_respected(self):
        system = build_system(
            "fastclaim",
            objects=("A", "B"),
            n_servers=2,
            placement={"A": ("s1",), "B": ("s1",)},
        )
        assert system.server("s1").objects == ("A", "B")
        assert system.server("s0").objects == ()

    def test_roles(self):
        system = build_system("fastclaim", objects=("A",), n_servers=2)
        assert system.client("c0") is system.sim.processes["c0"]
        with pytest.raises(TypeError):
            system.client("s0")
        with pytest.raises(TypeError):
            system.server("c0")

    def test_service_pids_include_extras(self):
        system = build_system("calvin", objects=("A", "B"), n_servers=2)
        assert "seq0" in system.service_pids
        assert set(system.servers) <= set(system.service_pids)

    def test_execute_timeout(self):
        system = build_system("fastclaim", objects=("A",), n_servers=2)
        with pytest.raises(TransactionIncomplete):
            system.execute(
                "c0", write_only_txn({"A": "x"}, txid="w1"), max_events=1
            )


class TestRegistry:
    def test_all_protocols_have_paper_rows(self):
        for name in protocol_names():
            info = get_protocol(name)
            assert info.paper_row.rounds
            assert info.consistency in (
                "causal",
                "read-atomic",
                "serializable",
                "strict-serializable",
            )

    def test_titles_unique(self):
        titles = [REGISTRY[n].title for n in protocol_names()]
        assert len(set(titles)) == len(titles)

    def test_protocol_count(self):
        assert len(protocol_names()) == 17

    def test_claims_and_support_flags(self):
        assert get_protocol("cops_snow").claims_fast_rot
        assert not get_protocol("cops_snow").supports_wtx
        assert get_protocol("wren").supports_wtx
        assert not get_protocol("wren").claims_fast_rot


class TestStoreFacade:
    def test_accessors(self):
        s = Store(protocol="fastclaim", objects=("A", "B"), n_servers=2)
        assert s.objects == ("A", "B")
        assert s.servers == ("s0", "s1")
        assert "c0" in s.clients

    def test_read_write_rw(self):
        s = Store(protocol="spanner", objects=("A", "B"), n_servers=2)
        s.write("c0", {"A": "1"})
        rec = s.read_write("c1", ["A"], {"B": "derived"})
        assert rec.reads["A"] == "1"
        assert s.read("c2", ["B"])["B"] == "derived"

    def test_dump_stores(self):
        s = Store(protocol="fastclaim", objects=("A",), n_servers=1,
                  clients=("c0",))
        s.write("c0", {"A": "x"})
        chains = s.dump_stores()
        assert [v.value for v in chains["s0"]["A"]] == [BOTTOM, "x"]

    def test_seed_none_uses_round_robin(self):
        s = Store(protocol="fastclaim", objects=("A",), seed=None)
        assert isinstance(s.scheduler, RoundRobinScheduler)

    def test_check_consistency_levels(self):
        s = Store(protocol="ramp", objects=("A", "B"), n_servers=2)
        s.write("c0", {"A": "1", "B": "2"})
        report = s.check_consistency()
        assert report.level == "read-atomic"
        assert report.ok

    def test_a_long_session_is_checked(self):
        """1 100 writes by one client form a causal chain as long."""
        s = Store("cops", objects=("X0", "X1"), clients=("c0",))
        for i in range(1_100):
            s.write("c0", {"X0": f"v{i}"})
        assert s.check_consistency().ok


class TestWitnessTypes:
    def test_mixed_detection(self):
        w = MixedReadWitness(
            reader="r",
            reads={"X": "old", "Y": "new"},
            old_values={"X": "old", "Y": "oldY"},
            new_values={"X": "newX", "Y": "new"},
            construction="gamma",
            k=1,
        )
        assert w.is_mixed()
        assert "mix" in w.describe()

    def test_unmixed(self):
        w = MixedReadWitness(
            reader="r",
            reads={"X": "newX", "Y": "new"},
            old_values={"X": "old", "Y": "oldY"},
            new_values={"X": "newX", "Y": "new"},
            construction="gamma",
            k=1,
        )
        assert not w.is_mixed()

    def test_verdict_describe(self):
        v = TheoremVerdict(
            protocol="p",
            outcome=CAUSAL_VIOLATION,
            k_reached=2,
            detail="boom",
            forced_messages=["k=1: explicit: s1 -> s0"],
        )
        text = v.describe()
        assert "boom" in text and "forced" in text
        assert v.consistent_with_theorem
