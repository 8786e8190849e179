"""The parallel frontier's acceptance gate: identical, and how fast.

Runs the full-scope FastClaim write/read race — the seed scenario whose
schedule tree is heavily skewed (the subtrees under the multi-object
write dwarf the read-first subtrees) — through the pool at several
widths and asserts its contract:

* **Identity.** Pool verdicts and anomaly unions equal serial's; pool
  state counts are bit-identical run to run (the shared canonical claim
  set makes the explored quotient schedule-independent, so there is no
  wall-clock dependence to hide behind); and pool visits never exceed
  the serial count.
* **The speedup gate.** workers=4 beats the *strict* serial DFS by
  >= 2.2x (wall-clock <= 0.45x) and workers=8 by >= 3.5x.  That ratio
  is the canonical quotient's win (~1.3k classes against ~46k strict
  configurations), not the pool's — it holds on a single-core runner.
  The ``serial_por`` arm is the baseline that already has the quotient
  (one process, sleep sets, ~1.4k states): ``speedup_vs_serial_por`` is
  what the extra processes add, reported and not gated, with
  ``cpu_count`` stamped so the artifact says which machine it was.

The grid lands in ``benchmarks/results/BENCH_parallel.json`` (a CI
artifact, so the trajectory stays observable across PRs).
"""

import os
import time

from conftest import anomaly_union, save_json
from repro.core.explore import explore_write_read_race

#: the skewed full-scope scenario (depth past quiescence, no truncation)
PROTOCOL, DEPTH = "fastclaim", 18

#: the speedup gates, per pool width
SPEEDUP_GATE = {4: 2.2, 8: 3.5}

#: workers=4 wall-clock must undercut serial by this factor
WALL_CLOCK_GATE = 0.45


def _count_key(r):
    return (
        r.states_visited,
        r.states_deduped,
        r.schedules_completed,
        r.truncated,
    )


def _run(workers, por=False):
    t0 = time.perf_counter()
    r = explore_write_read_race(
        PROTOCOL,
        max_depth=DEPTH,
        max_states=80_000,
        first_violation_only=False,
        por=por,
        workers=workers,
    )
    return time.perf_counter() - t0, r


def _entry(seconds, r):
    return {
        "seconds": round(seconds, 2),
        "states_visited": r.states_visited,
        "states_deduped": r.states_deduped,
        "schedules_completed": r.schedules_completed,
        "violation_found": r.violation_found,
        "anomaly_union": anomaly_union(r),
        "roots_shipped": r.roots_shipped,
        "shared_seen_hits": r.shared_seen_hits,
    }


def test_parallel_frontier_gate(benchmark):
    report = {
        "protocol": PROTOCOL,
        "max_depth": DEPTH,
        "cpu_count": os.cpu_count(),
        "speedup_gate": SPEEDUP_GATE,
        "wall_clock_gate": WALL_CLOCK_GATE,
        "arms": {},
    }

    def run():
        serial_s, serial = _run(workers=1)
        report["arms"]["serial"] = _entry(serial_s, serial)
        por_s, serial_por = _run(workers=1, por=True)
        report["arms"]["serial_por"] = _entry(por_s, serial_por)
        assert anomaly_union(serial_por) == anomaly_union(serial)
        pool = {}
        for w in (4, 8):
            secs, r = _run(workers=w)
            pool[w] = r
            assert not r.auto_serial
            arm = _entry(secs, r)
            arm["speedup_vs_serial"] = round(serial_s / secs, 2)
            arm["speedup_vs_serial_por"] = round(por_s / secs, 2)
            report["arms"][f"workers{w}"] = arm
        # identity: verdicts, unions, and counts under the shared quotient
        for w, r in pool.items():
            assert r.violation_found == serial.violation_found, w
            assert anomaly_union(r) == anomaly_union(serial), w
            assert r.states_visited <= serial.states_visited, w
        # determinism: a second workers=4 run is count-bit-identical
        again_s, again = _run(workers=4)
        assert _count_key(again) == _count_key(pool[4])
        report["arms"]["workers4_repeat"] = _entry(again_s, again)
        report["count_deterministic"] = True

    benchmark.pedantic(run, rounds=1, iterations=1)
    # the speedup gates (see the module docstring: the canonical
    # quotient makes these hold even single-core)
    for w, gate in SPEEDUP_GATE.items():
        speedup = report["arms"][f"workers{w}"]["speedup_vs_serial"]
        assert speedup >= gate, (w, speedup)
    w4 = report["arms"]["workers4"]
    assert w4["seconds"] <= WALL_CLOCK_GATE * report["arms"]["serial"]["seconds"]
    save_json("BENCH_parallel", report)
    print(
        f"{PROTOCOL}@{DEPTH}: serial {report['arms']['serial']['seconds']}s "
        f"({report['arms']['serial']['states_visited']:,} states) — "
        f"w4 {w4['speedup_vs_serial']}x, "
        f"w8 {report['arms']['workers8']['speedup_vs_serial']}x; against "
        f"serial+por ({report['arms']['serial_por']['states_visited']:,} "
        f"states) w4 {w4['speedup_vs_serial_por']}x"
    )
    benchmark.extra_info["speedup"] = {
        w: report["arms"][f"workers{w}"]["speedup_vs_serial"] for w in (4, 8)
    }
