"""End-to-end benchmark of the explorer and the simulator.

    python benchmarks/e2e/run.py --workload dfs_strict [--seed 41]

One process runs one workload: the workload's K identical deterministic
*passes* are timed with tracing off, the end-to-end metrics are taken
from those, and one more pass runs under the outside-in layer spans of
:mod:`spans` to give the per-layer numbers.  Every pass is checked; the
exit code is non-zero if any check failed.  Every metric is printed by
name with its unit, and the last line of standard output is one JSON
object for the driver.

The benchmark driver appends ``--seconds <run_seconds> --trace <0|1>``
(README.md, "The driver's command line"): ``--trace 0`` skips the traced
pass, and a ``--seconds`` other than BENCHMARK.json's ``run_seconds``
scales every workload's K by the same factor.  See README.md beside this
file for what each workload isolates.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pickle
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
OUT = HERE / "out"

#: fresh ``python`` children timed for ``setup_s``
SETUP_CHILDREN = 11

_MAIN_PID = os.getpid()


def _pin_hash_seed() -> None:
    """Re-exec with ``PYTHONHASHSEED=0`` when it is unset, so that
    set-iteration order can never be a variable between two runs."""
    if os.environ.get("PYTHONHASHSEED") is None:
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)


def _parse_args() -> argparse.Namespace:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=41)
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help="the driver passes run_seconds; another value scales K by seconds / run_seconds",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=1,
        help="0: no traced pass, the last line carries the end-to-end metrics; "
             "1: the per-layer metrics",
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    args.spec = spec
    return args


# -- the machine-speed witness ------------------------------------------------------


def ref_kernel() -> float:
    """Seconds for a fixed stdlib-only dict/pickle/blake2b kernel.

    It runs before, between and after the passes.  ``pass_s`` and
    ``env.ref_kernel_s`` rising together is the box, not the code.
    """
    t0 = perf_counter()
    for _ in range(20):  # many small rounds: the kernel must not set the peak RSS
        table = {}
        for i in range(5_000):
            table[(i, str(i))] = [i, i * 2, str(i * 3)]
        blob = pickle.dumps(table, 5)
        digest = hashlib.blake2b(digest_size=16)
        for off in range(0, len(blob), 512):
            digest.update(blob[off:off + 512])
        if len(pickle.loads(blob)) != len(table):
            raise RuntimeError("ref kernel: pickle round trip lost entries")
    return perf_counter() - t0


# -- set-up time -----------------------------------------------------------------------


def measure_setup(runner: "Runner") -> List[float]:
    """Wall-clock of fresh children: interpreter start → ``import
    repro`` → build every system and script one pass needs.

    Each child is one operation; one that exits non-zero is a failed
    operation and gives no time.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", runner.workload.name,
           "--seed", str(runner.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_CHILDREN):
        runner.attempted += 1
        t0 = perf_counter()
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if done.returncode:
            runner.fail([f"set-up child exited {done.returncode}\n{done.stderr}"])
        else:
            times.append(perf_counter() - t0)
    return times


# -- passes -------------------------------------------------------------------------------


def _cpu_children() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Runner:
    """Runs checked passes of one workload and books every one."""

    def __init__(self, workload: Any, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def fail(self, failures: List[str]) -> None:
        """Book one failed operation with its reasons."""
        if failures:
            self.failed += 1
            self.failures.extend(failures)

    def one_pass(self, workload: Any = None, tracer: Any = None) -> Optional[Dict[str, Any]]:
        """Build (untimed), run (timed), check.  ``None`` if it raised.

        With a ``tracer`` the layer wrappers are on for the timed part
        only, and the span-boundary checks count towards this pass.
        """
        workload = workload or self.workload
        self.attempted += 1
        try:
            prepared = workload.build(self.seed)
            before = workload.counters(prepared)
            gc.collect()
            if tracer is not None:
                tracer.install(workload.systems(prepared))
            child0, cpu0, t0 = _cpu_children(), process_time(), perf_counter()
            if tracer is not None:
                outcome = tracer.run_root(workload.run, prepared)
            else:
                outcome = workload.run(prepared)
            wall = perf_counter() - t0
            cpu_self = process_time() - cpu0
            cpu_children = _cpu_children() - child0
            result = workload.check(prepared, outcome)
        except Exception:  # a pass that raises or stalls is a failed operation
            self.fail([f"{workload.name}: pass raised\n{traceback.format_exc()}"])
            return None
        finally:
            if tracer is not None:
                tracer.uninstall()
        counters = {k: v - before[k] for k, v in workload.counters(prepared).items()}
        failures = list(result.failures)
        if tracer is not None:
            # workers merge their own ledgers into the parent's, but not
            # their spans: only a serial pass can match count for count
            failures += tracer.validate(counters, exact=not workload.workers)
            failures += workload.check_trace(tracer)
        self.fail(failures)
        return {
            "wall": wall,
            "cpu": cpu_self + cpu_children,
            "cpu_children": cpu_children,
            "result": result,
            "counters": counters,
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def peak_rss_mb(workers: int) -> float:
    """The harness's peak plus ``workers ×`` the largest reaped child's.

    Read right after the timed passes: the only children reaped by then
    are the engine's pool workers.
    """
    self_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    child_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return self_mb + workers * child_mb


def end_to_end(passes: List[Dict[str, Any]], setup: List[float], rss_mb: float) -> Dict[str, float]:
    """The four numbers a user of the system sees, as far as gathered.

    Passes are deterministic and CPU-bound, so environment noise is
    one-sided: the minimum is the estimator that repeats.  Set-up time
    is the median of the children.
    """
    metrics = {}
    if setup:
        metrics["setup_s"] = statistics.median(setup)
    if passes:
        metrics["pass_s"] = min(p["wall"] for p in passes)
        metrics["cpu_s"] = min(p["cpu"] for p in passes)
        metrics["peak_rss_mb"] = rss_mb
    return metrics


def per_layer(
    e2e: Dict[str, float],
    passes: List[Dict[str, Any]],
    kernel: List[float],
    traced: Dict[str, Any],
    tracer: Any,
    serial_s: float,
) -> Dict[str, float]:
    """Layer metrics: spans from the traced pass, counts from the last
    timed pass (they are the same on every pass)."""
    from spans import ROOT

    last = passes[-1]
    c = last["counters"]
    res = last["result"]
    eng = res.engine
    walls = [p["wall"] for p in passes]
    pass_s, cpu_s = e2e["pass_s"], e2e["cpu_s"]
    t = tracer
    events = t.count("sim.step") + t.count("sim.deliver")
    root = t.total(ROOT)
    pool_s = t.total("pool.run_parallel")
    worker_cpu = min(p["cpu_children"] for p in passes)
    claims = c["shared_seen_hits"] + c["shared_seen_inserts"]
    return {
        "sim.fingerprint_s": t.self_s("sim.fingerprint"),
        "sim.snapshot_s": t.self_s("sim.snapshot"),
        "sim.restore_s": t.self_s("sim.restore"),
        "sim.step_self_s": t.self_s("sim.step"),
        "sim.deliver_s": t.self_s("sim.deliver"),
        "sim.sched_self_s": t.self_s("sim.sched_tick"),
        "sim.us_per_event": 1e6 * _ratio(t.total("sim.step") + t.total("sim.deliver"), events),
        "sim.events_per_s": _ratio(events, pass_s),
        "sim.events": events,
        "sim.snapshots": c["snapshots"],
        "sim.restores": c["restores"],
        "sim.fingerprints": c["fingerprints"],
        "sim.bytes_serialized": c["bytes_serialized"],
        "sim.bytes_restored": c["bytes_restored"],
        "sim.cache_hit_ratio": _ratio(c["cache_hits"], c["cache_hits"] + c["cache_misses"]),
        "sim.restore_reuse_ratio": _ratio(
            c["components_reused"], c["components_reused"] + c["components_restored"]
        ),
        "sim.components_per_restore": _ratio(c["components_restored"], c["restores"]),
        "sim.codec_fallbacks": c["codec_fallbacks"],
        "sim.events_per_txn": _ratio(res.events, res.txns),
        "sim.share_of_pass": _ratio(t.layer_self_s("sim."), root),
        "protocols.on_step_s": t.self_s("protocols.on_step"),
        "protocols.on_step_calls": t.count("protocols.on_step"),
        "engine.self_s": t.self_s("engine.run"),
        "engine.states_visited": eng["states_visited"],
        "engine.states_deduped": eng["states_deduped"],
        "engine.dedup_ratio": _ratio(
            eng["states_deduped"], eng["states_deduped"] + eng["states_visited"]
        ),
        "engine.schedules_completed": eng["schedules_completed"],
        "engine.truncated": eng["truncated"],
        "engine.us_per_state": 1e6 * _ratio(pass_s, eng["states_visited"]),
        "engine.states_per_s": _ratio(eng["states_visited"], pass_s),
        "consistency.advance_s": t.self_s("consistency.advance"),
        "consistency.anomalies_s": t.self_s("consistency.anomalies"),
        "consistency.rollback_s": t.self_s("consistency.rollback"),
        "consistency.checks": eng["checks"],
        "consistency.engine_timer_s": traced["result"].checker_seconds,
        "consistency.check_history_s": t.self_s("consistency.check_history"),
        "pool.run_parallel_s": pool_s,
        "pool.parent_busy_s": pool_s - t.self_s("pool.run_parallel"),
        "pool.parent_wait_s": t.self_s("pool.run_parallel"),
        "pool.worker_cpu_s": worker_cpu,
        "pool.cpu_over_wall": _ratio(cpu_s, pass_s),
        "pool.states_per_cpu_s": _ratio(eng["states_visited"], cpu_s),
        "pool.speedup_vs_serial": _ratio(serial_s, pass_s),
        "pool.roots_shipped": eng["roots_shipped"],
        "pool.publishes": c["publishes"],
        "pool.steals": c["steals"],
        "pool.idle_waits": c["idle_waits"],
        "pool.shared_seen_hits": c["shared_seen_hits"],
        "pool.shared_seen_inserts": c["shared_seen_inserts"],
        "pool.claim_win_ratio": _ratio(c["shared_seen_inserts"], claims),
        "pool.auto_serial": res.auto_serial,
        "workloads.generate_s": t.self_s("workloads.generate"),
        "workloads.run_self_s": t.self_s("workloads.run"),
        "txn.history_s": t.self_s("txn.history"),
        "noise.passes": len(passes),
        "noise.pass_med_s": statistics.median(walls),
        "noise.pass_spread": _ratio(max(walls) - min(walls), min(walls)),
        "env.ref_kernel_s": min(kernel),
        "trace.overhead_ratio": _ratio(traced["wall"], statistics.median(walls)),
        "trace.unattributed_share": _ratio(t.self_s(ROOT), root),
    }


def env_stamp(args: argparse.Namespace) -> Dict[str, Any]:
    import repro.engine.parallel as parallel_mod

    git = subprocess.run(
        ["git", "-C", str(REPO), "rev-parse", "HEAD"],
        capture_output=True, text=True,
        env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(REPO.parent)),
    )
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": git.stdout.strip() if git.returncode == 0 else None,
        "mp_start_method": parallel_mod._mp_context().get_start_method(),
        "seed": args.seed,
        "seconds": args.seconds,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def emit(args: argparse.Namespace, runner: Runner, metrics: Dict[str, float],
         span_table: List[Dict[str, Any]]) -> None:
    """Print every metric by name with its unit, write the report, and
    end with the one JSON line the driver reads."""
    spec = args.spec
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    unknown = [name for name in metrics if name not in units]
    if metrics and (missing or unknown):
        runner.failed = max(runner.failed, 1)
        runner.failures.append(
            f"metrics out of step with BENCHMARK.json: missing {missing}, unknown {unknown}"
        )

    for name, value in metrics.items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6f}"
        print(f"{name:32s} {shown} {units.get(name, '?')}")
    if span_table:
        print(f"{'span':28s} {'count':>9s} {'total_s':>10s} {'self_s':>10s} {'share':>7s}")
        for row in span_table:
            print(f"{row['name']:28s} {row['count']:9d} {row['total_s']:10.4f} "
                  f"{row['self_s']:10.4f} {row['self_share']:7.1%}")
    env = env_stamp(args)
    for key, value in env.items():
        print(f"env.{key:28s} {value}")
    print(f"ops_attempted {runner.attempted}")
    print(f"ops_failed {runner.failed}")
    for failure in runner.failures:
        print(f"FAILED: {failure}")

    report = {
        "workload": args.workload, "env": env, "metrics": metrics, "units": units,
        "span_table": span_table, "ops_attempted": runner.attempted,
        "ops_failed": runner.failed, "failures": runner.failures,
    }
    (OUT / f"{args.workload}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
            if m["name"] in metrics
        },
    }))


# -- leaving no process behind ------------------------------------------------------------


def _child_pids() -> List[int]:
    """Live processes whose parent is this one."""
    me, found = str(os.getpid()), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text()
            except OSError:  # it ended while we looked
                continue
            # "pid (comm) state ppid ...": comm may hold spaces and parentheses
            if stat.rpartition(")")[2].split()[1] == me:
                found.append(int(entry))
    return found


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    The engine's shared claim table is a ``SharedMemory`` segment, so the
    first ``pool_w2`` pass starts multiprocessing's resource tracker: a
    child that outlives its parent by the moment it takes to notice the
    closed pipe.  It is closed and waited for here; whatever else is
    still a child by then (a pool worker behind a pass that raised) is
    killed and reaped too.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    for pid in _child_pids():
        # the tracker goes last and by itself: it ends once every copy of
        # its pipe is closed, and a straggling worker holds one
        if pid != getattr(tracker, "_pid", None):
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass  # ended, or reaped, since the look at /proc
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()  # closes the pipe, waits for the tracker to end


def _on_sigterm(signum: int, frame: Any) -> None:
    if os.getpid() != _MAIN_PID:
        os._exit(128 + signum)  # a forked pool worker inherits the handler: die as by default
    raise SystemExit(128 + signum)  # unwind through main's finally


def main() -> int:
    _pin_hash_seed()
    args = _parse_args()
    if not (REPO / "src" / "repro").is_dir():
        sys.exit(f"{REPO}: no src/repro here, nothing to measure")
    sys.path[:0] = [str(REPO / "src"), str(HERE)]
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.setup_only:  # builds only: starts no process
        workload.build(args.seed)
        return 0
    signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        return run(args, workload)
    finally:
        stop_children()


def run(args: argparse.Namespace, workload: Any) -> int:
    from spans import Tracer

    OUT.mkdir(exist_ok=True)
    runner = Runner(workload, args.seed)
    kernel = [ref_kernel()]
    runner.one_pass()  # warm-up: caches fill and lazy imports finish, untimed
    passes: List[Dict[str, Any]] = []
    for _ in range(max(2, round(workload.passes * args.seconds / args.spec["run_seconds"]))):
        done = runner.one_pass()
        if done is None:
            break
        passes.append(done)
        if len(passes) == 1:
            kernel.append(ref_kernel())
    kernel.append(ref_kernel())
    rss_mb = peak_rss_mb(workload.workers)
    setup = measure_setup(runner)  # after the reading: its children must not set the peak

    metrics = end_to_end(passes, setup, rss_mb)
    span_table: List[Dict[str, Any]] = []
    if passes and args.trace:
        tracer = Tracer()
        traced = runner.one_pass(tracer=tracer)
        serial_s = 0.0
        if traced is not None and workload.workers:
            # one untimed workers=1 run of the same scenario, for the speed-up
            serial = runner.one_pass(workload=workload.serial())
            serial_s = serial["wall"] if serial else 0.0
        if traced is not None:
            metrics.update(per_layer(metrics, passes, kernel, traced, tracer, serial_s))
            tracer.dump(OUT / f"{args.workload}.spans.json", args.workload)
            span_table = tracer.table()

    emit(args, runner, metrics, span_table)
    return 1 if runner.failures else 0


if __name__ == "__main__":
    sys.exit(main())
