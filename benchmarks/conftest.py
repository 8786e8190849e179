"""Helpers shared by the gated pytest-benchmark scripts.

``bench_explore`` and ``bench_parallel`` each assert an acceptance
gate and write one ``benchmarks/results/BENCH_*.json``,
stamped with the same ``env`` block as the paper ledger.
"""

import json
from pathlib import Path

from paper_ledger import env_stamp

RESULTS_DIR = Path(__file__).parent / "results"


def save_json(name: str, payload) -> None:
    path = RESULTS_DIR / f"{name}.json"
    stamped = dict(payload, env=env_stamp())
    path.write_text(json.dumps(stamped, indent=2, sort_keys=True) + "\n")
    print(f"[saved to benchmarks/results/{name}.json]")


def anomaly_union(result):
    """Every distinct anomaly over all violating schedules, sorted."""
    return sorted(
        {str(a) for _, anomalies in result.violations for a in anomalies}
    )


def once(benchmark, fn, *args, **kwargs):
    """Run a heavyweight function once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
