"""Delta checkers vs the batch scan on the exploration hot path.

PR 4's acceptance gate.  The engine's DFS maintains the consistency
checkers incrementally — commits advance them, backtracking rolls them
back — so a leaf verdict is a cache read over maintained state instead
of a whole-history rebuild (``build_history`` + causal-order closure +
full scan).  This benchmark drives *check-heavy* write/read-race
scenarios (several writes racing several ROTs, so leaf histories carry
up to ~10 committed transactions) through both arms and records, per
scenario:

* **per-node check cost** — seconds spent inside ``_check_leaf`` divided
  by leaves; the gate asserts the batch/incremental ratio is ≥ 5x on
  both the FastClaim and the COPS scenarios;
* **total checker seconds** — leaf verdicts *plus* the incremental arm's
  advance/rollback maintenance, asserted never worse than batch;
* **bit-identity** — both arms must report the same states, schedules,
  violating traces and anomaly strings (the same invariant
  ``tests/test_incremental.py`` checks leaf-by-leaf via the oracle).

Results land in ``benchmarks/results/BENCH_checker.json`` (a CI
artifact, like BENCH_explore).
"""

import json
import time

from conftest import RESULTS_DIR, anomaly_union, once, save_json

import repro.engine.core as engine_core
from repro.consistency import IncrementalCausalChecker, find_causal_anomalies
from repro.core.explore import explore
from repro.core.setup import prepare_theorem_system
from repro.txn.history import History
from repro.txn.types import Transaction, TxnRecord, read_only_txn, write_only_txn

#: (label, protocol, txns in the script, max_depth, max_states)
SCENARIOS = [
    ("fastclaim x3", "fastclaim", 3, 100, 6_000),
    ("fastclaim x9", "fastclaim", 9, 100, 6_000),
    ("cops x3", "cops", 3, 100, 6_000),
    ("cops x9", "cops", 9, 100, 6_000),
]

PER_NODE_GATE = 5.0


def _script(tsys, n):
    """n transactions: single-object writes alternating with 2-key ROTs."""
    objs = tsys.objects
    script = []
    for i in range(n):
        if i % 2 == 0:
            obj = objs[(i // 2) % len(objs)]
            script.append(
                (tsys.cw, write_only_txn({obj: f"b{i}@w"}, txid=f"Tw{i}"))
            )
        else:
            script.append(
                (tsys.probes[1], read_only_txn(list(objs[:2]), txid=f"Tr{i}"))
            )
    return script


def _run(protocol, n, max_depth, max_states, incremental):
    """One arm, with ``_check_leaf`` wrapped to split out per-leaf cost."""
    tsys = prepare_theorem_system(protocol, n_probes=2)
    leaf = {"seconds": 0.0, "count": 0}
    orig = engine_core.SerialSearch._check_leaf

    def timed(self):
        t0 = time.perf_counter()
        orig(self)
        leaf["seconds"] += time.perf_counter() - t0
        leaf["count"] += 1

    engine_core.SerialSearch._check_leaf = timed
    t0 = time.perf_counter()
    try:
        r = explore(
            tsys.system,
            _script(tsys, n),
            max_depth=max_depth,
            max_states=max_states,
            first_violation_only=False,
            incremental=incremental,
        )
    finally:
        engine_core.SerialSearch._check_leaf = orig
    wall = time.perf_counter() - t0
    assert r.incremental == bool(incremental)
    return r, leaf, wall


def _identity(r):
    return dict(
        states_visited=r.states_visited,
        states_deduped=r.states_deduped,
        schedules_completed=r.schedules_completed,
        truncated=r.truncated,
        violating_schedules=len(r.violations),
        anomaly_union=anomaly_union(r),
    )


def test_checker_matrix(benchmark):
    """The gate: ≥ 5x cheaper leaf verdicts, identical results."""
    report = {"per_node_gate": PER_NODE_GATE, "scenarios": []}

    def run():
        for label, proto, n, depth, states in SCENARIOS:
            inc, inc_leaf, inc_wall = _run(proto, n, depth, states, True)
            bat, bat_leaf, bat_wall = _run(proto, n, depth, states, False)
            assert _identity(inc) == _identity(bat), label
            assert inc_leaf["count"] == bat_leaf["count"] == inc.checks
            per_inc = inc_leaf["seconds"] / inc_leaf["count"]
            per_bat = bat_leaf["seconds"] / bat_leaf["count"]
            report["scenarios"].append(
                {
                    "scenario": label,
                    "txns": n,
                    "leaves": inc.checks,
                    "leaf_us_incremental": round(per_inc * 1e6, 1),
                    "leaf_us_batch": round(per_bat * 1e6, 1),
                    "per_node_speedup": round(per_bat / per_inc, 1),
                    "checker_s_incremental": round(inc.checker_seconds, 3),
                    "checker_s_batch": round(bat.checker_seconds, 3),
                    "wall_s_incremental": round(inc_wall, 2),
                    "wall_s_batch": round(bat_wall, 2),
                    "identity": _identity(inc),
                }
            )

    once(benchmark, run)
    for entry in report["scenarios"]:
        # the acceptance gate, per scenario
        assert entry["per_node_speedup"] >= PER_NODE_GATE, entry
        # maintenance included, the delta arm must never cost more overall
        assert (
            entry["checker_s_incremental"] <= entry["checker_s_batch"]
        ), entry
    save_json("BENCH_checker", report)
    benchmark.extra_info["per_node_speedup"] = [
        (e["scenario"], e["per_node_speedup"]) for e in report["scenarios"]
    ]


# -- per-history-size micro curve ------------------------------------------

MICRO_SIZES = [4, 8, 16, 32, 64]
MICRO_REPS = 200


def _micro_records(n):
    """n committed transactions: writers interleaved with 2-key readers."""
    objs = ("X", "Y")
    last = {o: f"{o}:init" for o in objs}
    out = [
        TxnRecord(
            txn=Transaction("Tin", writes=tuple(last.items())),
            client="w",
            reads={},
            invoked_at=0,
            completed_at=1,
        )
    ]
    for i in range(1, n):
        if i % 2:
            obj = objs[i % len(objs)]
            val = f"{obj}:{i}"
            out.append(
                TxnRecord(
                    txn=Transaction(f"Tw{i}", writes=((obj, val),)),
                    client="w",
                    reads={},
                    invoked_at=2 * i,
                    completed_at=2 * i + 1,
                )
            )
            last[obj] = val
        else:
            out.append(
                TxnRecord(
                    txn=Transaction(f"Tr{i}", read_set=objs),
                    client=f"r{i % 3}",
                    reads=dict(last),
                    invoked_at=2 * i,
                    completed_at=2 * i + 1,
                )
            )
    return out


def test_checker_micro(benchmark):
    """Batch rescan vs one incremental delta, as the history grows.

    The batch arm pays a history rebuild plus a full causal scan at
    every size; the incremental arm pays one ``advance`` of the final
    record plus an ``anomalies()`` read (bracketed by checkpoint/
    rollback, as the DFS uses it).  The curve is the cost model of
    docs/model.md: the batch scan grows superlinearly with history
    length while the delta grows only with the new record's causal
    footprint, so the gap widens as histories deepen.
    """
    curve = []

    def run():
        for n in MICRO_SIZES:
            records = _micro_records(n)
            t0 = time.perf_counter()
            for _ in range(MICRO_REPS):
                find_causal_anomalies(History(records=list(records)))
            batch_us = (time.perf_counter() - t0) / MICRO_REPS * 1e6
            checker = IncrementalCausalChecker()
            checker.advance(records[:-1])
            t0 = time.perf_counter()
            for _ in range(MICRO_REPS):
                tok = checker.checkpoint()
                checker.advance(records[-1:])
                checker.anomalies()
                checker.rollback(tok)
            delta_us = (time.perf_counter() - t0) / MICRO_REPS * 1e6
            curve.append(
                {
                    "history_size": n,
                    "batch_us": round(batch_us, 1),
                    "delta_us": round(delta_us, 1),
                    "speedup": round(batch_us / delta_us, 1),
                }
            )

    once(benchmark, run)
    # the curve must not degrade as histories grow
    assert curve[-1]["speedup"] >= PER_NODE_GATE, curve
    path = RESULTS_DIR / "BENCH_checker.json"
    payload = json.loads(path.read_text())
    payload["micro_causal_curve"] = curve
    save_json("BENCH_checker", payload)
    benchmark.extra_info["micro_speedup"] = [
        (c["history_size"], c["speedup"]) for c in curve
    ]
