"""The incremental causal checker against its batch oracle.

Two layers of evidence that :mod:`repro.consistency.incremental` gives
the batch scan's verdict on every prefix of a history:

* **CausalOrder units** — the append path (``add_node``/``add_edge``)
  agrees with batch ``from_edges`` closure, reports exact closure
  deltas, and rolls back through checkpoints bit-exactly.
* **Property equivalence** (hypothesis) — for random histories driven
  through arbitrary advance/checkpoint/rollback/re-advance sequences,
  every intermediate verdict of the incremental checker is
  *bit-identical* (same anomalies, same order) to the batch scan on the
  records consumed so far; corrupt histories raise the same way.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.consistency import IncrementalCausalChecker, find_causal_anomalies
from repro.txn.history import CausalOrder, History
from repro.txn.types import BOTTOM

from helpers import rec

CHECKERS = [(IncrementalCausalChecker, find_causal_anomalies)]


# ---------------------------------------------------------------------------
# CausalOrder: append path vs batch closure, checkpoint/rollback
# ---------------------------------------------------------------------------


class TestCausalOrderAppendPath:
    def test_extend_matches_from_edges(self):
        nodes = ["a", "b", "c", "d"]
        edges = [("a", "b"), ("b", "c"), ("a", "d")]
        batch = CausalOrder.from_edges(nodes, edges)
        inc = CausalOrder()
        for n in nodes:
            inc.add_node(n)
        inc.extend(edges)
        for x in nodes:
            for y in nodes:
                assert inc.lt(x, y) == batch.lt(x, y), (x, y)

    def test_add_edge_reports_closure_delta(self):
        o = CausalOrder()
        for n in ("a", "b", "c"):
            o.add_node(n)
        assert o.add_edge("a", "b") == [("a", "b")]
        # closing b<c also relates a<c transitively
        assert sorted(o.add_edge("b", "c")) == [("a", "c"), ("b", "c")]
        # an already-implied edge is an empty delta
        assert o.add_edge("a", "c") == []

    def test_add_edge_rejects_cycles_unchanged(self):
        o = CausalOrder()
        for n in ("a", "b"):
            o.add_node(n)
        o.add_edge("a", "b")
        with pytest.raises(ValueError):
            o.add_edge("b", "a")
        assert o.lt("a", "b") and not o.lt("b", "a")

    def test_rollback_restores_relations_and_nodes(self):
        o = CausalOrder()
        o.add_node("a")
        tok = o.checkpoint()
        o.add_node("b")
        o.add_edge("a", "b")
        assert o.lt("a", "b")
        o.rollback(tok)
        assert "b" not in o and not o.lt("a", "b")
        # the order is reusable after rollback
        o.add_node("b2")
        o.add_edge("a", "b2")
        assert o.lt("a", "b2")


# ---------------------------------------------------------------------------
# property equivalence: incremental == batch under arbitrary schedules
# ---------------------------------------------------------------------------


@st.composite
def arrival_plans(draw):
    """Records plus an arrival order and a checkpoint/rollback script.

    Up to 6 transactions over 2 objects and 3 clients; reads may be ⊥, a
    previously-written value, a value written by a *later* record (so it
    arrives pending and resolves on the writer's commit), or a value
    nobody ever writes (the "<nonexistent>" verdict paths).  Arrival
    order is any interleaving preserving per-client program order.
    """
    n = draw(st.integers(1, 6))
    objs = ("X", "Y")
    clients = ("c1", "c2", "c3")
    all_vals = [f"{o}{i}" for o in objs for i in range(n)]
    records = []
    for i in range(n):
        client = draw(st.sampled_from(clients))
        kind = draw(st.sampled_from(["r", "w", "rw"]))
        reads, writes = {}, {}
        if kind in ("r", "rw"):
            for obj in sorted(draw(st.sets(st.sampled_from(objs), min_size=1))):
                reads[obj] = draw(
                    st.sampled_from(
                        [BOTTOM]
                        + [v for v in all_vals if v.startswith(obj)]
                        + [f"{obj}never"]
                    )
                )
        if kind in ("w", "rw"):
            for obj in sorted(draw(st.sets(st.sampled_from(objs), min_size=1))):
                writes[obj] = f"{obj}{i}"
        if not reads and not writes:
            writes = {"X": f"X{i}"}
        records.append(
            rec(f"T{i}", client, reads=reads, writes=writes, invoked_at=i)
        )
    # an arrival interleaving preserving per-client program order
    per_client = {c: [r for r in records if r.client == c] for c in clients}
    arrival = []
    pos = {c: 0 for c in clients}
    while len(arrival) < n:
        ready = [c for c in clients if pos[c] < len(per_client[c])]
        c = draw(st.sampled_from(sorted(ready)))
        arrival.append(per_client[c][pos[c]])
        pos[c] += 1
    script = draw(
        st.lists(st.sampled_from(["advance", "mark", "rollback"]), max_size=12)
    )
    return arrival, script


def batch_verdict(batch, consumed):
    """The batch checker's verdict on the records consumed so far."""
    hist = History(
        records=sorted(consumed, key=lambda r: (r.invoked_at, r.txid))
    )
    try:
        return ("ok", [repr(a) for a in batch(hist)])
    except ValueError:
        return ("corrupt",)


def incremental_verdict(checker):
    try:
        return ("ok", [repr(a) for a in checker.anomalies()])
    except ValueError:
        return ("corrupt",)


@pytest.mark.parametrize(
    "factory,batch", CHECKERS, ids=["causal"]
)
class TestIncrementalMatchesBatch:
    @given(arrival_plans())
    @settings(max_examples=120, deadline=None)
    def test_every_intermediate_verdict(self, factory, batch, plan):
        arrival, script = plan
        checker = factory()
        consumed = []
        # interleave the script's checkpoints/rollbacks with advancing,
        # ending with everything consumed; verify after every step
        marks = []
        i = 0
        for op in script + ["advance"] * (len(arrival) - i):
            if op == "advance" and i < len(arrival):
                checker.advance([arrival[i]])
                consumed.append(arrival[i])
                i += 1
            elif op == "mark":
                marks.append((checker.checkpoint(), i))
            elif op == "rollback" and marks:
                tok, i = marks.pop()
                checker.rollback(tok)
                consumed = consumed[:i]
            assert incremental_verdict(checker) == batch_verdict(
                batch, consumed
            ), [r.txid for r in consumed]
        while i < len(arrival):
            checker.advance([arrival[i]])
            consumed.append(arrival[i])
            i += 1
        assert incremental_verdict(checker) == batch_verdict(batch, consumed)

