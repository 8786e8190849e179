"""Edge-path coverage: report rendering, search memoization, visibility
probe corners, network non-FIFO behaviour under the executor, Store
error paths."""

import pytest

from repro import Store
from repro.consistency import ConsistencyReport, check_history
from repro.consistency.search import find_legal_serialization
from repro.core import prepare_theorem_system, probe_read
from repro.core.setup import SetupError
from repro.sim.executor import ReplayError, Simulation
from repro.txn.types import BOTTOM, read_only_txn, write_only_txn

from helpers import Echo, Pinger, history_of, rec


class TestConsistencyReport:
    def test_describe_truncates_violations(self):
        records = [rec("w0", "c0", writes={"X": 0}, invoked_at=0)]
        for i in range(1, 15):
            records.append(
                rec(f"r{i}", "c1", reads={"X": f"ghost{i}"}, invoked_at=i * 2)
            )
        report = check_history(history_of(*records), level="causal")
        text = report.describe()
        assert "more" in text  # truncation marker
        assert not report.ok

    def test_bool_protocol(self):
        good = ConsistencyReport(level="causal", ok=True, conclusive=True)
        bad = ConsistencyReport(level="causal", ok=False, conclusive=True)
        assert good and not bad

    def test_inconclusive_marker(self):
        r = ConsistencyReport(level="causal", ok=True, conclusive=False)
        assert "inconclusive" in r.describe()

    def test_strict_failure_includes_causal_diagnostics(self):
        h = history_of(
            rec("w", "c1", writes={"X": 1, "Y": 1}, invoked_at=0, completed_at=1),
            rec("r", "c2", reads={"X": 1, "Y": BOTTOM}, invoked_at=5),
        )
        report = check_history(h, level="strict-serializable")
        assert not report.ok
        assert report.violations  # causal anomalies surfaced as diagnostics


class TestSearchMemoization:
    def test_revisited_states_pruned(self):
        # many independent writers: factorial orders, linear states
        records = [
            rec(f"w{i}", f"c{i}", writes={"X": i}, invoked_at=i) for i in range(7)
        ]
        res = find_legal_serialization(records, [])
        assert res.found
        # factorial(7) = 5040 permutations; memoized search visits far fewer
        assert res.steps < 600


class TestVisibilityCorners:
    def test_probe_none_when_blocked_forever(self):
        # swiftcloud stale mode: a probe at epoch 0 completes but returns
        # the initial values — visible() must say no, not hang
        tsys_error = None
        try:
            prepare_theorem_system("swiftcloud")
        except SetupError as exc:
            tsys_error = exc
        assert tsys_error is not None
        assert "not visible" in str(tsys_error)

    def test_probe_restores_even_on_partial_completion(self):
        tsys = prepare_theorem_system("fastclaim")
        sim = tsys.sim
        n_before = sim.network.n_in_transit()
        reads = probe_read(sim, tsys.probes[0], tsys.objects, tsys.servers,
                           max_events=3)  # too few events to finish
        assert reads is None
        assert sim.network.n_in_transit() == n_before  # rolled back


class TestStoreErrorPaths:
    def test_unknown_client(self):
        s = Store(protocol="fastclaim", objects=("A",))
        with pytest.raises(KeyError):
            s.read("ghost", ["A"])

    def test_unknown_object_in_read(self):
        s = Store(protocol="fastclaim", objects=("A",))
        with pytest.raises(KeyError):
            s.read("c0", ["Z"])

    def test_check_consistency_exact_flag(self):
        s = Store(protocol="fastclaim", objects=("A",))
        s.write("c0", {"A": "1"})
        assert s.check_consistency(exact=True).conclusive


class TestExecutorCorners:
    def test_deliver_specific_out_of_order(self):
        sim = Simulation([Pinger("p", "e", n=3), Echo("e")])
        sim.step("p")
        sim.step("p")
        sim.step("p")
        # deliver the third message first by explicit link_seq
        m = sim.deliver("p", "e", link_seq=2)
        assert m.payload.token == 1  # pinger sends n..1
        sim.step("e")
        assert sim.processes["e"].seen == [1]

    def test_replay_error_message_names_link(self):
        sim = Simulation([Pinger("p", "e", n=1), Echo("e")])
        with pytest.raises(ReplayError, match="p->e"):
            sim.deliver("p", "e", link_seq=5)
