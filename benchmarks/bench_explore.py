"""The exploration-engine matrix: POR × workers.

Runs the two seed write/read-race scenarios (FastClaim, which violates;
COPS, which verifies) through the engine's knobs at full scope — depth
past quiescence, no truncation — and records the whole grid in
``benchmarks/results/BENCH_explore.json``.  The matrix is simultaneously
the acceptance gate for the partial-order reduction (same verdict, same
anomaly set, ≥ 2x fewer expanded states than the unreduced DFS) and the
perf trajectory the CI artifact tracks across PRs.

The closing test repeats the paper's point from the other side: the
brute-force checker needs tens of thousands of configurations (hundreds
after reduction) to find what the proof engine assembles as one splice.
"""

import time

from conftest import anomaly_union, once, save_json
from repro.core import check_impossibility
from repro.core.explore import explore_write_read_race

#: (protocol, full-scope depth, expects violation)
SCENARIOS = [
    ("fastclaim", 18, True),
    ("cops", 22, False),
]

#: (label, por, workers) — the CI smoke matrix mirrors this
CONFIGS = [
    ("dfs", False, 1),
    ("dfs+por", True, 1),
    ("dfs+por+w2", True, 2),
]

def test_engine_matrix(benchmark):
    """The whole grid, with the POR acceptance gate asserted."""
    report = {"scenarios": []}

    def run():
        for proto, depth, expect_violation in SCENARIOS:
            entry = {"protocol": proto, "max_depth": depth, "configs": {}}
            for label, por, workers in CONFIGS:
                t0 = time.perf_counter()
                r = explore_write_read_race(
                    proto,
                    max_depth=depth,
                    max_states=80_000,
                    first_violation_only=False,
                    por=por,
                    workers=workers,
                )
                dt = time.perf_counter() - t0
                assert r.violation_found == expect_violation, (proto, label)
                assert r.truncated == 0 and not r.exhausted, (proto, label)
                entry["configs"][label] = {
                    "states_visited": r.states_visited,
                    "states_deduped": r.states_deduped,
                    "schedules_completed": r.schedules_completed,
                    "violating_schedules": len(r.violations),
                    "anomaly_union": anomaly_union(r),
                    "seconds": round(dt, 2),
                    "counters": r.counters.as_dict(),
                }
            report["scenarios"].append(entry)

    once(benchmark, run)
    for entry in report["scenarios"]:
        cfg = entry["configs"]
        plain, reduced = cfg["dfs"], cfg["dfs+por"]
        # every knob returns the same verdict and the same anomalies
        for label, arm in cfg.items():
            assert arm["anomaly_union"] == plain["anomaly_union"], label
        # the acceptance gate: POR cuts expanded states by >= 2x
        entry["por_reduction"] = round(
            plain["states_visited"] / reduced["states_visited"], 1
        )
        assert entry["por_reduction"] >= 2.0, entry
    save_json("BENCH_explore", report)
    benchmark.extra_info["por_reduction"] = [
        (e["protocol"], e["por_reduction"]) for e in report["scenarios"]
    ]


def test_proof_engine_refutes_fastclaim(benchmark):
    verdict = once(benchmark, check_impossibility, "fastclaim", max_k=3,
                   skip_fast_check=True)
    assert verdict.outcome == "CAUSAL_VIOLATION"
