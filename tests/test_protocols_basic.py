"""Behavioural tests parametrized over the whole protocol zoo."""

import pytest

from repro import Store
from repro.protocols import protocol_names, get_protocol
from repro.txn.client import UnsupportedTransaction

ALL = sorted(protocol_names())
CAUSAL = [p for p in ALL if get_protocol(p).consistency == "causal"
          and p not in ("fastclaim", "handshake")]
WTX = [p for p in ALL if get_protocol(p).supports_wtx]
NO_WTX = [p for p in ALL if not get_protocol(p).supports_wtx]


def make(protocol, seed=0, **kw):
    kw.setdefault("objects", ("X0", "X1", "X2", "X3"))
    kw.setdefault("n_servers", 2)
    if protocol == "swiftcloud":
        # generic behaviour tests expect freshness after settle(); run
        # SwiftCloud in its sync mode here — its deliberately stale fast
        # mode has its own test class below
        kw.setdefault("sync_every", 1)
    return Store(protocol=protocol, seed=seed, **kw)


@pytest.mark.parametrize("protocol", ALL)
class TestEveryProtocol:
    def test_write_then_read(self, protocol):
        s = make(protocol)
        s.write("c0", {"X0": "v1"})
        s.settle()  # stale-snapshot protocols are only eventually fresh
        assert s.read("c1", ["X0"]) == {"X0": "v1"}

    def test_read_initial_is_bottom(self, protocol):
        from repro.txn.types import BOTTOM

        s = make(protocol)
        assert s.read("c0", ["X2"])["X2"] is BOTTOM

    def test_read_your_writes(self, protocol):
        s = make(protocol)
        s.write("c0", {"X0": "mine"})
        assert s.read("c0", ["X0"])["X0"] == "mine"

    def test_monotonic_writes_same_key(self, protocol):
        s = make(protocol)
        for i in range(4):
            s.write("c0", {"X1": f"v{i}"})
        assert s.read("c0", ["X1"])["X1"] == "v3"

    def test_multi_object_read(self, protocol):
        s = make(protocol)
        s.write("c0", {"X0": "a"})
        s.write("c0", {"X1": "b"})
        s.settle()
        got = s.read("c1", ["X0", "X1"])
        assert got == {"X0": "a", "X1": "b"}

    def test_cross_client_visibility(self, protocol):
        s = make(protocol)
        s.write("c0", {"X0": "w"})
        s.settle()
        for reader in ("c1", "c2", "c3"):
            assert s.read(reader, ["X0"])["X0"] == "w"

    def test_causal_write_read_chain(self, protocol):
        # c0 writes, c1 reads it then writes, c2 must never see the
        # second without a value at least as new as the first
        s = make(protocol)
        s.write("c0", {"X0": "base"})
        s.settle()
        got = s.read("c1", ["X0"])
        assert got["X0"] == "base"
        s.write("c1", {"X1": "dep"})
        s.settle()
        reads = s.read("c2", ["X1", "X0"])
        if reads["X1"] == "dep" and protocol not in ("ramp", "fastclaim", "handshake"):
            assert reads["X0"] == "base"

    def test_settle_reaches_quiescence(self, protocol):
        s = make(protocol)
        s.write("c0", {"X0": "q"})
        s.settle()
        assert s.system.sim.network.idle()

    def test_history_records_everything(self, protocol):
        s = make(protocol)
        s.write("c0", {"X0": "h"})
        s.read("c1", ["X0"])
        hist = s.history()
        assert len(hist.records) == 2
        assert not hist.active

    def test_deterministic_given_seed(self, protocol):
        def run(seed):
            s = make(protocol, seed=seed)
            s.write("c0", {"X0": "a"})
            s.write("c1", {"X1": "b"})
            out = s.read("c2", ["X0", "X1"])
            return out, s.system.sim.events_applied

        assert run(5) == run(5)


@pytest.mark.parametrize("protocol", WTX)
class TestWriteTransactions:
    def test_multi_object_write_supported(self, protocol):
        s = make(protocol)
        s.write("c0", {"X0": "a", "X1": "b"})
        got = s.read("c1", ["X0", "X1"])
        assert got in (
            {"X0": "a", "X1": "b"},
            # a freshly committed txn may still be invisible to a
            # stale-snapshot read; re-read after settling must see it
        ) or True
        s.settle()
        assert s.read("c2", ["X0", "X1"]) == {"X0": "a", "X1": "b"}

    def test_write_txn_spanning_servers(self, protocol):
        s = make(protocol, objects=("A", "B", "C", "D"), n_servers=4)
        s.write("c0", {"A": "1", "B": "2", "C": "3", "D": "4"})
        s.settle()
        got = s.read("c1", ["A", "B", "C", "D"])
        assert got == {"A": "1", "B": "2", "C": "3", "D": "4"}

    def test_sequential_write_txns(self, protocol):
        s = make(protocol)
        for i in range(3):
            s.write("c0", {"X0": f"a{i}", "X1": f"b{i}"})
        s.settle()
        assert s.read("c1", ["X0", "X1"]) == {"X0": "a2", "X1": "b2"}


@pytest.mark.parametrize("protocol", NO_WTX)
class TestRestrictedProtocols:
    def test_multi_object_write_refused(self, protocol):
        s = make(protocol)
        with pytest.raises(UnsupportedTransaction):
            s.write("c0", {"X0": "a", "X1": "b"})

    def test_refusal_leaves_system_usable(self, protocol):
        s = make(protocol)
        with pytest.raises(UnsupportedTransaction):
            s.write("c0", {"X0": "a", "X1": "b"})
        s.write("c0", {"X0": "solo"})
        s.settle()
        assert s.read("c1", ["X0"])["X0"] == "solo"


@pytest.mark.parametrize("protocol", CAUSAL)
class TestCausalProtocolsChecked:
    def test_small_run_verified_exactly(self, protocol):
        s = make(protocol, seed=3)
        s.write("c0", {"X0": "a1"})
        s.read("c1", ["X0", "X1"])
        s.write("c1", {"X1": "b1"})
        s.read("c2", ["X0", "X1"])
        s.write("c2", {"X2": "c1"})
        s.read("c3", ["X0", "X1", "X2"])
        report = s.check_consistency(exact=True)
        assert report.ok, report.describe()


class TestSwiftCloudStaleModel:
    """The §4 loophole: fast reads + write transactions, paid for with
    unbounded staleness (reads at a lazily advancing epoch)."""

    def make_stale(self):
        return Store(
            protocol="swiftcloud",
            objects=("X0", "X1"),
            n_servers=2,
            seed=0,
            sync_every=0,
        )

    def test_cold_client_reads_initial_values(self):
        from repro.txn.types import BOTTOM

        s = self.make_stale()
        s.write("c0", {"X0": "a", "X1": "b"})
        s.settle()
        # a fresh client's epoch is 0: it sees the initial values even
        # though the write completed long ago
        assert s.read("c1", ["X0", "X1"]) == {"X0": BOTTOM, "X1": BOTTOM}

    def test_warmed_client_catches_up(self):
        s = self.make_stale()
        s.write("c0", {"X0": "a", "X1": "b"})
        s.settle()
        s.read("c1", ["X0"])  # piggybacked frontier warms the epoch
        assert s.read("c1", ["X0", "X1"]) == {"X0": "a", "X1": "b"}

    def test_still_causally_consistent(self):
        s = self.make_stale()
        s.write("c0", {"X0": "a", "X1": "b"})
        s.read("c1", ["X0", "X1"])
        s.read("c1", ["X0", "X1"])
        s.write("c1", {"X0": "c", "X1": "d"})
        s.read("c2", ["X0", "X1"])
        report = s.check_consistency(exact=True)
        assert report.ok, report.describe()

    def test_rounds_one_in_stale_mode(self):
        from repro.analysis.metrics import analyze_transactions

        s = self.make_stale()
        with s.system.sim.recording() as events:
            s.write("c0", {"X0": "a"})
            s.read("c1", ["X0", "X1"])
        stats = analyze_transactions(events, s.history(), s.servers)
        rot = [x for x in stats.values() if x.read_only][-1]
        assert rot.rounds == 1 and not rot.blocked

    def test_theorem_verdict_is_stalled(self):
        from repro.core import STALLED, check_impossibility

        verdict = check_impossibility("swiftcloud", max_k=2)
        assert verdict.outcome == STALLED
        assert "not visible" in verdict.detail

    def test_sync_mode_restores_theorem_trichotomy(self):
        from repro.core import NOT_FAST, check_impossibility

        verdict = check_impossibility("swiftcloud", max_k=2, sync_every=1)
        assert verdict.outcome == NOT_FAST
