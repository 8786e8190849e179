"""Occult: master/slave shardstamps and client-side causal repair.

The implementation history of this protocol is itself a testimonial for
the checkers: three subtle bugs (a slave shardstamp that over-reported
because 2PC commit stamps are not monotone in the replication log,
missing sibling dependencies on transactional commits, and a stable-mark
leak between the items of one commit) were all caught by
``find_causal_anomalies`` on random workloads.  The regression scenarios
below pin each one.
"""

import pytest

from repro.consistency import check_history, find_causal_anomalies
from repro.protocols import build_system
from repro.sim.adversaries import LIFOScheduler, StarveLinkScheduler
from repro.sim.scheduler import RoundRobinScheduler, run_until_quiescent
from repro.txn.types import BOTTOM, read_only_txn, write_only_txn
from repro.workloads import WorkloadSpec, run_workload


def build(objects=("X0", "X1", "X2", "X3"), n_servers=3, clients=("w", "r", "z")):
    return build_system(
        "occult", objects=objects, n_servers=n_servers, replication=2,
        clients=clients,
    )


def do(system, client, txn):
    return system.execute(client, txn, scheduler=RoundRobinScheduler())


class TestBasics:
    def test_write_read_roundtrip(self):
        system = build()
        do(system, "w", write_only_txn({"X0": "a"}, txid="t"))
        rec = do(system, "w", read_only_txn(("X0",), txid="r"))
        assert rec.reads["X0"] == "a"

    def test_reads_go_to_slaves(self):
        system = build()
        client = system.client("r")
        # the read replica is the last replica — never the master
        for obj in ("X0", "X1", "X2", "X3"):
            assert client.read_replica(obj) != client.master(obj)

    def test_wtx_commits_per_shard_stamps(self):
        system = build()
        do(system, "w", write_only_txn({"X0": "a", "X1": "b"}, txid="t"))
        # the two shards committed at their own stamps
        client = system.client("w")
        s_x0 = client.deps["X0"]
        s_x1 = client.deps["X1"]
        assert s_x0[1] != s_x1[1]  # different masters
        rec = do(system, "w", read_only_txn(("X0", "X1"), txid="r"))
        assert rec.reads == {"X0": "a", "X1": "b"}

    def test_stale_slave_triggers_retry(self, record):
        """Freeze replication: the client's read must escalate (extra
        rounds — Occult's R >= 1) and still return its own write."""
        from repro.core.visibility import FrozenScheduler

        system = build()
        sim = system.sim
        events = record(sim)
        do(system, "w", write_only_txn({"X0": "mine"}, txid="t"))
        frozen = {m.msg_id for m in sim.network.pending()}
        client = system.client("w")
        sim.invoke("w", read_only_txn(("X0",), txid="r"))
        FrozenScheduler(frozen).run(
            sim, until=lambda s: len(client.completed) == 2, max_events=20_000
        )
        rec = client.completed[-1]
        assert rec.reads["X0"] == "mine"
        from repro.analysis.metrics import analyze_transactions

        stats = analyze_transactions(events, system.history(), system.servers)
        assert stats["r"].rounds >= 2  # slave retry then master escalation
        assert not stats["r"].blocked  # servers never defer (no cascades)


class TestRegressionScenarios:
    def test_slave_stamp_is_prefix_stable(self):
        """Regression: a slave must not report a shardstamp covering a
        2PC commit whose records it has not fully applied."""
        system = build_system(
            "occult",
            objects=("X0", "X3"),
            n_servers=2,
            clients=("w", "r"),
            placement={"X0": ("s0", "s1"), "X3": ("s0", "s1")},
        )
        sim = system.sim
        # both X0 and X3 mastered at s0, replicated to s1
        do(system, "w", write_only_txn({"X3": "old"}, txid="t0"))
        system.settle()
        # commit a 2-item transaction at s0, delivering only the FIRST
        # replication record to s1
        sim.invoke("w", write_only_txn({"X0": "n0", "X3": "n3"}, txid="t1"))
        run_until_quiescent(sim, pids=("w", "s0"), max_events=5000)
        records = sim.network.pending(src="s0", dst="s1")
        assert len(records) >= 2
        sim.deliver_msg(records[0])
        sim.step("s1")
        server = system.server("s1")
        master_stamp = system.client("w").causal_ts["s0"]
        # the slave's reported stable stamp must stay BELOW the commit
        assert server.shardstamps.get("s0", 0) < master_stamp

    def test_sibling_atomicity_across_masters(self):
        """Regression: reading one shard of a transaction steers the
        reader to the sibling shard's write."""
        system = build()
        do(system, "w", write_only_txn({"X0": "a", "X1": "b"}, txid="t"))
        system.settle()
        rec = do(system, "r", read_only_txn(("X0", "X1"), txid="rot"))
        # all-or-nothing (within causal semantics: both new here)
        assert rec.reads == {"X0": "a", "X1": "b"}
        report = check_history(system.history(), level="causal", exact=True)
        assert report.ok, report.describe()


class TestOccultStress:
    @pytest.mark.parametrize("seed", [0, 3, 7, 11, 24])
    def test_random_workloads_causal(self, seed):
        system = build_system(
            "occult", objects=("X0", "X1", "X2", "X3"), n_servers=3,
            replication=2,
        )
        hist = run_workload(
            system, WorkloadSpec(n_txns=70, read_ratio=0.6, seed=seed)
        )
        assert find_causal_anomalies(hist) == [], seed

    @pytest.mark.parametrize(
        "sched", [LIFOScheduler, lambda: StarveLinkScheduler("s0", "s1")]
    )
    def test_chaos_adversaries(self, sched):
        system = build_system(
            "occult", objects=("X0", "X1", "X2", "X3"), n_servers=3,
            replication=2,
        )
        hist = run_workload(
            system,
            WorkloadSpec(n_txns=50, read_ratio=0.6, seed=2),
            scheduler=sched(),
        )
        assert find_causal_anomalies(hist) == []

    def test_characterization_row(self):
        from repro.analysis import characterize

        system = build_system(
            "occult", objects=("X0", "X1", "X2", "X3"), n_servers=3,
            replication=2,
        )
        with system.sim.recording() as events:
            hist = run_workload(system, WorkloadSpec(n_txns=80, read_ratio=0.6, seed=7))
        ch = characterize(system, hist, events)
        assert ch.consistency_ok
        assert ch.n_blocked == 0  # Occult never defers server-side
        assert ch.supports_wtx
