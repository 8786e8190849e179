"""Unit tests for the strawman protocols themselves (fastclaim,
handshake): the engine's targets should misbehave in exactly the
designed way, and not otherwise."""

import pytest

from repro.protocols import build_system
from repro.sim.scheduler import RoundRobinScheduler, run_until_quiescent
from repro.txn.types import BOTTOM, read_only_txn, rw_txn, write_only_txn


def do(system, client, txn):
    return system.execute(client, txn, scheduler=RoundRobinScheduler())


class TestFastClaim:
    def build(self):
        return build_system(
            "fastclaim", objects=("X0", "X1"), n_servers=2, clients=("w", "r")
        )

    def test_rw_transaction_two_phases(self):
        system = self.build()
        do(system, "w", write_only_txn({"X0": "5"}, txid="seed"))
        rec = do(system, "w", rw_txn(["X0"], {"X1": "copy"}, txid="t"))
        assert rec.reads["X0"] == "5"
        assert do(system, "r", read_only_txn(("X1",), txid="r")).reads["X1"] == "copy"

    def test_stale_replies_ignored(self):
        """A reply for an abandoned transaction id must not corrupt the
        current transaction."""
        system = self.build()
        sim = system.sim
        client = system.client("r")
        sim.invoke("r", read_only_txn(("X0",), txid="t1"))
        sim.step("r")
        req = sim.network.pending(src="r")[0]
        sim.deliver_msg(req)
        sim.step("s0")
        # complete t1, then start t2; deliver t1's reply late
        reply = sim.network.pending(dst="r")[0]
        sim.deliver_msg(reply)
        sim.step("r")
        assert client.completed[-1].txid == "t1"
        sim.invoke("r", read_only_txn(("X1",), txid="t2"))
        sim.step("r")
        # re-deliver nothing; just make sure t2 still completes cleanly
        run_until_quiescent(sim)
        assert client.completed[-1].txid == "t2"

    def test_writes_visible_immediately_per_server(self):
        system = self.build()
        sim = system.sim
        sim.invoke("w", write_only_txn({"X0": "a", "X1": "b"}, txid="t"))
        sim.step("w")
        sim.deliver_msg(sim.network.pending(dst="s0")[0])
        sim.step("s0")
        # only s0 has applied: the defining asymmetry of the strawman
        assert system.server("s0").latest("X0").value == "a"
        assert system.server("s1").latest("X1").value is BOTTOM


class TestHandshake:
    def test_sync_hops_zero_is_fastclaim(self):
        system = build_system(
            "handshake", objects=("X0", "X1"), n_servers=2, clients=("w", "r"),
            sync_hops=0,
        )
        do(system, "w", write_only_txn({"X0": "a", "X1": "b"}, txid="t"))
        assert do(system, "r", read_only_txn(("X0", "X1"), txid="r1")).reads == {
            "X0": "a",
            "X1": "b",
        }

    def test_single_object_write_skips_handshake(self):
        system = build_system(
            "handshake", objects=("X0", "X1"), n_servers=2, clients=("w", "r"),
            sync_hops=3,
        )
        sim = system.sim
        with sim.recording() as events:
            do(system, "w", write_only_txn({"X0": "solo"}, txid="t"))
        # no hs traffic for a single-server write
        from repro.protocols.base import ServerMsg
        from repro.sim.trace import StepEvent

        hs = [
            m
            for ev in events
            if isinstance(ev, StepEvent)
            for m in ev.sent
            if isinstance(m.payload, ServerMsg) and m.payload.kind == "hs"
        ]
        assert hs == []

    @pytest.mark.parametrize("hops", [1, 2])
    def test_token_count_matches_2k(self, hops):
        system = build_system(
            "handshake", objects=("X0", "X1"), n_servers=2, clients=("w", "r"),
            sync_hops=hops,
        )
        sim = system.sim
        with sim.recording() as events:
            do(system, "w", write_only_txn({"X0": "a", "X1": "b"}, txid="t"))
        from repro.protocols.base import ServerMsg
        from repro.sim.trace import StepEvent

        hs = [
            m
            for ev in events
            if isinstance(ev, StepEvent)
            for m in ev.sent
            if isinstance(m.payload, ServerMsg) and m.payload.kind == "hs"
        ]
        assert len(hs) == 2 * hops

    def test_three_server_ring(self):
        system = build_system(
            "handshake",
            objects=("X0", "X1", "X2"),
            n_servers=3,
            clients=("w", "r"),
            sync_hops=1,
        )
        do(system, "w", write_only_txn({"X0": "a", "X1": "b", "X2": "c"}, txid="t"))
        rec = do(system, "r", read_only_txn(("X0", "X1", "X2"), txid="r1"))
        assert rec.reads == {"X0": "a", "X1": "b", "X2": "c"}

    def test_pending_versions_invisible_midway(self):
        system = build_system(
            "handshake", objects=("X0", "X1"), n_servers=2, clients=("w", "r"),
            sync_hops=2,
        )
        sim = system.sim
        sim.invoke("w", write_only_txn({"X0": "a", "X1": "b"}, txid="t"))
        sim.step("w")
        for m in list(sim.network.pending()):
            sim.deliver_msg(m)
        sim.step("s0")
        sim.step("s1")
        # halfway through the token exchange: both halves pending
        assert not system.server("s0").latest("X0").visible or (
            system.server("s0").latest("X0").value is BOTTOM
        )
        rec = do(system, "r", read_only_txn(("X0", "X1"), txid="r1"))
        # reads during the exchange see the initial values
        assert rec.reads["X0"] is BOTTOM or rec.reads["X0"] == "a"
