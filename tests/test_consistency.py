"""Consistency checker tests on hand-crafted histories.

Each classic anomaly gets a minimal history; the witness scanner, the
exact Definition-1 search, the serializability checkers and the session
checkers are validated against each other.
"""

import sys

import pytest

from repro.consistency import (
    check_causal,
    check_causal_exact,
    check_history,
    check_read_atomic,
    check_serializable,
    check_sessions,
    check_strict_serializable,
    find_causal_anomalies,
    find_fractured_reads,
)
from repro.consistency.search import find_legal_serialization
from repro.txn.types import BOTTOM

from helpers import history_of, rec


# ---------------------------------------------------------------------------
# the serialization search engine
# ---------------------------------------------------------------------------


class TestSearchEngine:
    def test_empty_history(self):
        res = find_legal_serialization([], [])
        assert res.found and res.order == [] and res.steps == 0

    def test_single_write(self):
        res = find_legal_serialization([rec("w", "c", writes={"X": 1})], [])
        assert res.found and res.order == ["w"] and res.steps == 1

    def test_read_needs_write_first(self):
        records = [
            rec("r", "c1", reads={"X": 1}),
            rec("w", "c2", writes={"X": 1}),
        ]
        res = find_legal_serialization(records, [])
        assert res.found and res.order == ["w", "r"] and res.steps == 2

    def test_respects_order_edges(self):
        records = [
            rec("a", "c", writes={"X": 1}),
            rec("b", "c", writes={"X": 2}),
        ]
        res = find_legal_serialization(records, [("a", "b")])
        assert res.found and res.order == ["a", "b"] and res.steps == 2

    def test_impossible_read(self):
        records = [rec("r", "c", reads={"X": 99})]
        res = find_legal_serialization(records, [])
        assert not res.found and res.conclusive
        assert res.order is None and res.steps == 1

    def test_legality_scoped_to_clients(self):
        # the stale read is fine if only c2's transactions must be legal
        records = [
            rec("w", "c2", writes={"X": 1}),
            rec("r", "c1", reads={"X": 99}),
        ]
        res = find_legal_serialization(records, [])
        assert not res.found and res.steps == 2
        res = find_legal_serialization(records, [], legality_clients={"c2"})
        assert res.found and res.order == ["w", "r"] and res.steps == 2

    def test_read_of_bottom_before_write(self):
        records = [
            rec("r", "c1", reads={"X": BOTTOM}),
            rec("w", "c2", writes={"X": 1}),
        ]
        res = find_legal_serialization(records, [])
        assert res.found and res.order == ["r", "w"] and res.steps == 2

    def test_budget_reports_inconclusive(self):
        records = [rec(f"w{i}", f"c{i}", writes={f"X{i}": i}) for i in range(12)]
        records.append(rec("r", "c", reads={"X0": 999}))
        res = find_legal_serialization(records, [], max_steps=5)
        assert not res.found and res.exhausted
        # the step that overflows the budget is counted, then the search stops
        assert res.steps == 6 and res.order is None

    def test_long_serial_history_needs_no_recursion(self):
        # one stack frame per placed transaction used to overflow the
        # interpreter's recursion limit past ~1k records
        n = 1_500
        assert n > sys.getrecursionlimit()
        records = [
            rec(
                f"t{i}",
                "c",
                reads={"X": i - 1 if i else BOTTOM},
                writes={"X": i},
                invoked_at=2 * i,
            )
            for i in range(n)
        ]
        edges = [(f"t{i}", f"t{i + 1}") for i in range(n - 1)]
        res = find_legal_serialization(records, edges)
        assert res.found and res.steps == n
        assert res.order == [r.txid for r in records]
        assert check_strict_serializable(history_of(*records)).serializable


# ---------------------------------------------------------------------------
# causal consistency
# ---------------------------------------------------------------------------


def lemma1_history():
    """The paper's Lemma 1 scenario: a reader sees a mix of old/new."""
    return history_of(
        rec("Tin0", "cin0", writes={"X0": "old0"}, invoked_at=0),
        rec("Tin1", "cin1", writes={"X1": "old1"}, invoked_at=1),
        rec("Tinr", "cw", reads={"X0": "old0", "X1": "old1"}, invoked_at=5),
        rec("Tw", "cw", writes={"X0": "new0", "X1": "new1"}, invoked_at=10),
        rec("Tr", "cr", reads={"X0": "old0", "X1": "new1"}, invoked_at=15),
    )


class TestCausalCheckers:
    def test_clean_sequential_history(self):
        h = history_of(
            rec("w1", "c1", writes={"X": 1}, invoked_at=0),
            rec("r1", "c2", reads={"X": 1}, invoked_at=5),
        )
        assert find_causal_anomalies(h) == []
        assert check_causal_exact(h).consistent

    def test_lemma1_mixed_read_caught_by_scan(self):
        anomalies = find_causal_anomalies(lemma1_history())
        assert anomalies
        a = anomalies[0]
        assert a.reader == "Tr" and a.obj == "X0"
        assert a.fresher_writer == "Tw"

    def test_lemma1_mixed_read_caught_by_exact(self):
        res = check_causal_exact(lemma1_history())
        assert not res.consistent and res.conclusive

    def test_mixed_read_without_causal_link_is_allowed(self):
        # without T_inr, Tw is concurrent with the initial writes; a
        # fractured read of concurrent transactions is causally fine
        h = history_of(
            rec("Tin0", "cin0", writes={"X0": "old0"}, invoked_at=0),
            rec("Tin1", "cin1", writes={"X1": "old1"}, invoked_at=1),
            rec("Tw", "cw", writes={"X0": "new0", "X1": "new1"}, invoked_at=10),
            rec("Tr", "cr", reads={"X0": "old0", "X1": "new1"}, invoked_at=15),
        )
        assert find_causal_anomalies(h) == []
        assert check_causal_exact(h).consistent

    def test_session_stale_read_caught(self):
        # c reads its own write, then an older value
        h = history_of(
            rec("w1", "c1", writes={"X": 1}, invoked_at=0),
            rec("w2", "c1", writes={"X": 2}, invoked_at=5),
            rec("r", "c1", reads={"X": 1}, invoked_at=10),
        )
        assert find_causal_anomalies(h)
        assert not check_causal_exact(h).consistent

    def test_read_of_unwritten_value(self):
        h = history_of(rec("r", "c", reads={"X": "ghost"}))
        assert find_causal_anomalies(h)

    def test_causal_chain_across_clients(self):
        # c2 reads c1's write then writes; c3 sees c2's write but then
        # reads the initial X — violation via the transitive chain
        h = history_of(
            rec("w1", "c1", writes={"X": 1}, invoked_at=0),
            rec("r2", "c2", reads={"X": 1}, invoked_at=5),
            rec("w2", "c2", writes={"Y": 2}, invoked_at=6),
            rec("r3", "c3", reads={"Y": 2, "X": BOTTOM}, invoked_at=10),
        )
        anomalies = find_causal_anomalies(h)
        assert anomalies and anomalies[0].obj == "X"
        assert not check_causal_exact(h).consistent

    def test_combined_checker_prefers_witness(self):
        res = check_causal(lemma1_history())
        assert not res.consistent and res.conclusive and res.anomalies

    def test_combined_checker_exact_for_small(self):
        h = history_of(rec("w", "c", writes={"X": 1}))
        res = check_causal(h)
        assert res.consistent and res.conclusive

    def test_combined_checker_large_clean_inconclusive(self):
        records = [
            rec(f"w{i}", f"c{i%3}", writes={f"X{i}": i}, invoked_at=i)
            for i in range(30)
        ]
        res = check_causal(history_of(*records))
        assert res.consistent is True and res.conclusive is False

    def test_exact_agrees_with_scan_on_clean(self):
        h = history_of(
            rec("w1", "c1", writes={"X": 1}, invoked_at=0),
            rec("w2", "c2", writes={"Y": 2}, invoked_at=1),
            rec("r1", "c3", reads={"X": 1, "Y": BOTTOM}, invoked_at=2),
            rec("r2", "c3", reads={"Y": 2}, invoked_at=3),
        )
        assert find_causal_anomalies(h) == []
        assert check_causal_exact(h).consistent


# ---------------------------------------------------------------------------
# serializability
# ---------------------------------------------------------------------------


class TestSerializability:
    def test_serializable_history(self):
        h = history_of(
            rec("w", "c1", writes={"X": 1}, invoked_at=0, completed_at=2),
            rec("r", "c2", reads={"X": 1}, invoked_at=5, completed_at=6),
        )
        assert check_serializable(h).serializable
        assert check_strict_serializable(h).serializable

    def test_fractured_read_not_serializable(self):
        h = history_of(
            rec("w", "c1", writes={"X": 1, "Y": 1}),
            rec("r", "c2", reads={"X": 1, "Y": BOTTOM}, invoked_at=5),
        )
        res = check_serializable(h)
        assert not res.serializable and res.conclusive

    def test_strict_adds_realtime(self):
        # r completed before w started yet reads w's value: serializable
        # (order w before r) but NOT strictly serializable
        h = history_of(
            rec("r", "c2", reads={"X": 1}, invoked_at=0, completed_at=1),
            rec("w", "c1", writes={"X": 1}, invoked_at=10, completed_at=12),
        )
        assert check_serializable(h).serializable
        assert not check_strict_serializable(h).serializable

    def test_write_skew_is_serializable_when_reads_allow(self):
        h = history_of(
            rec("t1", "c1", reads={"X": BOTTOM}, writes={"Y": 1}, invoked_at=0),
            rec("t2", "c2", reads={"Y": BOTTOM}, writes={"X": 2}, invoked_at=0),
        )
        # classic write skew: both read ⊥ — no single legal order exists
        res = check_serializable(h)
        assert not res.serializable


# ---------------------------------------------------------------------------
# read atomicity
# ---------------------------------------------------------------------------


class TestReadAtomicity:
    def test_atomic_reads_pass(self):
        h = history_of(
            rec("w", "c1", writes={"X": 1, "Y": 2}, invoked_at=0, completed_at=1),
            rec("r", "c2", reads={"X": 1, "Y": 2}, invoked_at=5),
        )
        assert check_read_atomic(h)

    def test_fractured_read_caught(self):
        h = history_of(
            rec("w", "c1", writes={"X": 1, "Y": 2}, invoked_at=0, completed_at=1),
            rec("r", "c2", reads={"X": 1, "Y": BOTTOM}, invoked_at=5),
        )
        fr = find_fractured_reads(h)
        assert fr and fr[0].obj_missed == "Y" and fr[0].sibling_txn == "w"

    def test_newer_sibling_version_allowed(self):
        h = history_of(
            rec("w1", "c1", writes={"X": 1, "Y": 1}, invoked_at=0, completed_at=1),
            rec("w2", "c1", writes={"Y": 2}, invoked_at=2, completed_at=3),
            rec("r", "c2", reads={"X": 1, "Y": 2}, invoked_at=5),
        )
        assert check_read_atomic(h)

    def test_concurrent_writers_not_flagged(self):
        h = history_of(
            rec("w1", "c1", writes={"X": 1, "Y": 1}, invoked_at=0, completed_at=9),
            rec("w2", "c2", writes={"Y": 2}, invoked_at=0, completed_at=9),
            rec("r", "c3", reads={"X": 1, "Y": 2}, invoked_at=20),
        )
        assert check_read_atomic(h)


# ---------------------------------------------------------------------------
# session guarantees
# ---------------------------------------------------------------------------


class TestSessions:
    def test_clean(self):
        h = history_of(
            rec("w", "c1", writes={"X": 1}, invoked_at=0),
            rec("r", "c1", reads={"X": 1}, invoked_at=5),
        )
        assert check_sessions(h) == []

    def test_read_your_writes_violation(self):
        h = history_of(
            rec("old", "c2", writes={"X": 0}, invoked_at=0),
            rec("r0", "c1", reads={"X": 0}, invoked_at=2),
            rec("w", "c1", writes={"X": 1}, invoked_at=5),
            rec("r", "c1", reads={"X": 0}, invoked_at=9),
        )
        v = check_sessions(h)
        assert any(x.guarantee == "read-your-writes" for x in v)

    def test_monotonic_reads_violation(self):
        h = history_of(
            rec("w1", "c2", writes={"X": 1}, invoked_at=0),
            rec("w2", "c3", reads={"X": 1}, writes={"X": 2}, invoked_at=3),
            rec("ra", "c1", reads={"X": 2}, invoked_at=6),
            rec("rb", "c1", reads={"X": 1}, invoked_at=9),
        )
        v = check_sessions(h)
        assert any(x.guarantee == "monotonic-reads" for x in v)

    def test_concurrent_reads_not_flagged(self):
        h = history_of(
            rec("w1", "c2", writes={"X": 1}, invoked_at=0),
            rec("w2", "c3", writes={"X": 2}, invoked_at=0),
            rec("ra", "c1", reads={"X": 2}, invoked_at=6),
            rec("rb", "c1", reads={"X": 1}, invoked_at=9),
        )
        assert check_sessions(h) == []


# ---------------------------------------------------------------------------
# one-call verdicts
# ---------------------------------------------------------------------------


class TestCheckHistory:
    def test_levels_validated(self):
        with pytest.raises(ValueError):
            check_history(history_of(), level="bogus")

    def test_causal_fail_report(self):
        report = check_history(lemma1_history(), level="causal")
        assert not report.ok and report.conclusive
        assert "Tw" in report.describe()

    def test_read_atomic_report(self):
        h = history_of(
            rec("w", "c1", writes={"X": 1, "Y": 2}, invoked_at=0, completed_at=1),
            rec("r", "c2", reads={"X": 1, "Y": BOTTOM}, invoked_at=5),
        )
        report = check_history(h, level="read-atomic")
        assert not report.ok and report.violations

    def test_strict_serializable_report(self):
        h = history_of(
            rec("w", "c1", writes={"X": 1}, invoked_at=0, completed_at=1),
            rec("r", "c2", reads={"X": 1}, invoked_at=5),
        )
        assert check_history(h, level="strict-serializable").ok
