"""A/A check: do two sets of runs of the same code agree?

    python benchmarks/e2e/aa.py [--runs 3] [--seed 41]

Runs every workload ``--runs`` times as set A (seeds ``seed``,
``seed+1``, …), then again as set B with the same seeds, on the same
checkout.  For every workload × end-to-end metric it prints the two
medians, how far apart they are (over the smaller one: for identical
code a difference in either direction is noise), each set's spread
(distance between the first and third quartile over the median; needs
four runs) and the metric's bound from BENCHMARK.json.  The exact counts
of run *i* of A and run *i* of B are compared too: a count that differs
between two runs of the same code and seed is a determinism bug, not
noise.  Pool steal and claim counters depend on the schedule and are
left out.

Exits non-zero if the medians differ by more than the bound, a spread
(other than that of ``setup_s``) is wider than its bound, a count
differs, or a run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]

#: exact counts that must repeat between A and B; the ``sim.*`` ones are
#: the parent's ledger plus whatever each worker booked, which depends
#: on who stole what, so they are compared on the serial workloads only
ENGINE_COUNTS = (
    "engine.states_visited",
    "engine.states_deduped",
    "engine.schedules_completed",
    "engine.truncated",
    "consistency.checks",
)
SIM_COUNTS = (
    "sim.events",
    "sim.snapshots",
    "sim.restores",
    "sim.fingerprints",
    "sim.bytes_serialized",
    "sim.bytes_restored",
)
POOL_WORKLOADS = ("pool_w2",)


def run_once(workload: str, seed: int) -> Dict[str, Any]:
    """One benchmark process; returns the report it wrote."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py exited {done.returncode}")
    return json.loads((HERE / "out" / f"{workload}.json").read_text())


def spread(values: List[float]) -> Optional[float]:
    """Quartile distance over the median; ``None`` with under four runs."""
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=41)
    args = parser.parse_args()

    sets: Dict[str, Dict[str, List[Dict[str, Any]]]] = {}
    for label in "AB":
        sets[label] = {}
        for workload in workloads:
            sets[label][workload] = []
            for i in range(args.runs):
                report = run_once(workload, args.seed + i)
                sets[label][workload].append(report["metrics"])
                print(f"# set {label} {workload} seed {args.seed + i}: " + " ".join(
                    f"{m['name']}={report['metrics'][m['name']]:.4f}"
                    for m in spec["end_to_end"]
                ), flush=True)

    bad = 0
    print(f"{'workload':11s} {'metric':12s} {'median A':>10s} {'median B':>10s} "
          f"{'apart':>10s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [m[name] for m in sets["A"][workload]]
            b = [m[name] for m in sets["B"][workload]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            apart = abs(med_b - med_a) / min(med_a, med_b)
            spreads = [spread(a), spread(b)]
            over = apart > bound or (
                name != "setup_s" and any(s is not None and s > bound for s in spreads)
            )
            bad += over
            shown = " ".join(f"{'n/a' if s is None else format(s, '.2%'):>9s}" for s in spreads)
            print(f"{workload:11s} {name:12s} {med_a:10.4f} {med_b:10.4f} {apart:10.2%} "
                  f"{shown} {bound:6.0%}" + ("  OVER" if over else ""))
    for workload in workloads:
        counts = ENGINE_COUNTS + (() if workload in POOL_WORKLOADS else SIM_COUNTS)
        for i, (a, b) in enumerate(zip(sets["A"][workload], sets["B"][workload])):
            for name in counts:
                if a[name] != b[name]:
                    bad += 1
                    print(f"COUNT DIFFERS {workload} seed {args.seed + i} "
                          f"{name}: A={a[name]} B={b[name]}")
    print("exact counts compared: " + ", ".join(ENGINE_COUNTS + SIM_COUNTS))
    print("A/A " + ("FAILED" if bad else "ok"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
