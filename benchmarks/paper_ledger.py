"""The paper ledger: every table, theorem run and figure in one artifact.

``build_ledger()`` walks :data:`SECTIONS` — per section a parameter
grid, a function measuring one grid point, and the shape assertions the
paper's argument rests on — into the content of
``benchmarks/results/PAPER_LEDGER.json``.  Every value is an exact
model-level count or a ratio rounded to 3 decimals, a pure function of
the code and the seeds written here: identical across machines and
``PYTHONHASHSEED``, so ``tests/test_paper_ledger.py`` holds the
committed file to equality and a stale table fails tier-1.  The paper
reports no performance numbers; the sections after ``figures`` quantify
the shapes its §1 and §3.4 describe.

``make ledger`` (or ``python benchmarks/paper_ledger.py``) regenerates
the ledger, rewrites the file with a fresh ``env`` stamp, and exits 1
naming every key that drifted from the committed one.
"""

import json
import os
import platform
import subprocess
import sys
from collections import namedtuple
from dataclasses import asdict
from functools import partial
from itertools import count, product
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro import analysis, core  # noqa: E402
from repro.protocols import REGISTRY, build_system, protocol_names  # noqa: E402
from repro.protocols.cops_geo import build_geo_system  # noqa: E402
from repro.sim import RandomScheduler, RoundRobinScheduler, adversaries  # noqa: E402
from repro.txn.types import read_only_txn, write_only_txn  # noqa: E402
from repro.workloads import DEFAULT_FAST_SPEC, TABLE1_SPEC, WorkloadSpec  # noqa: E402

LEDGER_PATH = REPO / "benchmarks" / "results" / "PAPER_LEDGER.json"
ZOO = tuple(sorted(protocol_names()))
#: the refuted strawmen: fast + WTX by giving up causal consistency
STRAWMEN = ("fastclaim", "handshake")
#: Handshake-K at its default depth behaves as FastClaim under a
#: workload; the sweeps run the pair once
WORKLOAD_ZOO = tuple(p for p in ZOO if p != "handshake")
READ_RATIOS = (0.5, 0.9, 0.99)
WIRE_PROTOCOLS = ("cops", "cops_snow", "gentlerain", "orbe", "cure", "wren", "cops_rw")
SERVER_COUNTS = (2, 4, 6)
#: the property each system gives up (Theorem 1: never none of them)
GIVES_UP = {
    core.NO_MULTI_WRITE: ("cops", "cops_snow", "contrarian", "gentlerain", "orbe"),
    core.NOT_FAST: ("wren", "cure", "eiger", "occult", "ramp", "ramp_small",
                    "spanner", "calvin", "cops_rw"),
    core.CAUSAL_VIOLATION: STRAWMEN,
    # the §4 loophole: fast + WTX bought with unbounded staleness —
    # minimal progress (Definition 3) is what breaks
    core.STALLED: ("swiftcloud",),
}
EXPECTED = {p: outcome for outcome, group in GIVES_UP.items() for p in group}
#: Theorem 2, (protocol, objects, servers, replication): five partial-
#: replication topologies FastClaim must be caught on, the restricted
#: protocol, and the Handshake-1 ring
TOPOLOGIES = (
    ("fastclaim", 3, 3, 1),
    ("fastclaim", 4, 3, 1),
    ("fastclaim", 6, 3, 2),
    ("fastclaim", 4, 4, 2),
    ("fastclaim", 8, 4, 3),
    ("cops_snow", 3, 3, 1),
    ("handshake", 3, 3, 1),
)
#: §3.4: each corner of the design space and the one property it gives up
CORNERS = dict(
    cops_snow="write_txns", wren="one_round", cops_rw="one_value", spanner="nonblocking"
)
FIGURES = {
    "figure1": lambda: analysis.figure1("cops_snow"),
    "figure2": lambda: analysis.figure2("fastclaim"),
    "figure3": lambda: analysis.figure3("fastclaim"),
    # Figure 3 against the depth-k specimen: the β of round 2K
    "figure3_handshake": lambda: analysis.figure3("handshake", max_k=8, sync_hops=2),
}
ADVERSARIES = {
    "random": lambda: RandomScheduler(5),
    "lifo": adversaries.LIFOScheduler,
    "starve(s0->s1)": lambda: adversaries.StarveLinkScheduler("s0", "s1"),
    "burst": lambda: adversaries.BurstScheduler(burst_every=6, seed=5),
}


def env_stamp():
    """Where an artifact came from; recorded, never compared."""
    git = subprocess.run(
        ["git", "-C", str(REPO), "rev-parse", "HEAD"],
        capture_output=True, text=True,
        env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(REPO.parent)),
    )
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": git.stdout.strip() if git.returncode == 0 else None,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def _objects(n):
    return tuple(f"X{i}" for i in range(n))


def measure(protocol, spec, objects=4, n_servers=2, clients=4, scheduler=None):
    """One seeded workload run, characterized from its trace.  On every
    run of every section the history must verify at the protocol's
    claimed consistency level; only the strawmen may fail it."""
    ch = analysis.measure(
        protocol, spec, scheduler=scheduler, objects=_objects(objects),
        n_servers=n_servers, clients=tuple(f"c{i}" for i in range(clients)),
    )
    assert ch.consistency_ok or protocol in STRAWMEN, ch.row()
    return ch


def columns(ch, *names):
    return {name: round(getattr(ch, name), 3) for name in names}


def table1_row(protocol):
    """The paper's claimed row beside the measured one and the verdict."""
    ch = measure(protocol, TABLE1_SPEC)
    verdict = core.check_impossibility(protocol, max_k=6)
    assert verdict.outcome == EXPECTED[protocol], verdict.describe()
    return {
        "claimed": asdict(REGISTRY[protocol].paper_row),
        "measured": dict(ch.row(), hops=ch.max_hops),
        "verdict": verdict.outcome,
        "k": verdict.k_reached,
        "consistent_with_theorem": verdict.consistent_with_theorem,
    }


def table1_shape(rows):
    assert all(row["consistent_with_theorem"] for row in rows.values())
    measured = {p: row["measured"] for p, row in rows.items()}
    fast = {p for p, m in measured.items() if m["fast"] == "yes" and m["hops"] <= 2}
    # the headline: among honest causal systems only COPS-SNOW is fast
    # (one round of direct replies), and it has no write transactions;
    # a fast+WTX row is a refuted strawman or the different-system-model
    # row (SwiftCloud: unbounded staleness)
    assert "cops_snow" in fast
    assert {p for p in fast if measured[p]["WTX"] == "yes"} <= {*STRAWMEN, "swiftcloud"}


def depth_row(hops):
    """Lemma 3 against Handshake-K: the round at which the splice lands."""
    tsys = core.prepare_theorem_system("handshake", sync_hops=hops)
    verdict = core.run_induction(tsys, max_k=2 * hops + 2)
    assert verdict.outcome == core.CAUSAL_VIOLATION
    # the troublesome execution grows linearly with coordination depth
    assert verdict.k_reached == 2 * hops
    return {"k": verdict.k_reached, "forced_messages": len(verdict.forced_messages)}


def topology_row(protocol, n_objects, n_servers, replication):
    verdict = core.check_impossibility_general(
        protocol, objects=_objects(n_objects), n_servers=n_servers,
        replication=replication, max_k=20,
        **({"sync_hops": 1} if protocol == "handshake" else {}),
    )
    assert verdict.outcome == EXPECTED[protocol], verdict.describe()
    witness = verdict.witness
    assert witness is None or witness.is_mixed(), verdict.describe()
    # the ring forces server-to-server messages before the splice
    assert protocol != "handshake" or verdict.forced_messages
    return {
        "outcome": verdict.outcome,
        "forced_messages": len(verdict.forced_messages),
        "objects_read": len(witness.reads) if witness else 0,
    }


def corner_row(protocol):
    report = analysis.measure(protocol, DEFAULT_FAST_SPEC, check=False)
    row = {p: getattr(report, p) for p in ("one_round", "one_value", "nonblocking")}
    row["write_txns"] = REGISTRY[protocol].supports_wtx
    given_up = [prop for prop, kept in row.items() if not kept]
    assert given_up == [CORNERS[protocol]], (protocol, row)
    return row


def figures_shape(rows):
    text = {name: "\n".join(lines) for name, lines in rows.items()}
    for phrase in ("Q_in", "Q_0", "C_0", "X0:init", "X1:init"):
        assert phrase in text["figure1"], phrase
    # Construction 1 returns the initial values, Construction 2 the new
    assert "(all initial)" in text["figure2"] and "(all written)" in text["figure2"]
    assert "CAUSAL_VIOLATION" in text["figure3"]
    assert "mix of old and new values" in text["figure3"]
    assert text["figure3_handshake"].count("necessary message") == 4


def cost_row(protocol):
    spec = WorkloadSpec(n_txns=200, read_ratio=0.8, read_size=(2, 3), seed=41)
    return round(measure(protocol, spec).events_per_txn, 3)


def cost_shape(rows):
    # fast reads carry a read-dominated load in fewer events than snapshots
    assert rows["cops_snow"] < rows["wren"] and rows["cops_snow"] < rows["cure"]


def sweep_row(protocol, read_ratio):
    spec = WorkloadSpec(n_txns=120, read_ratio=read_ratio, read_size=(2, 3), seed=31)
    ch = measure(protocol, spec)
    return columns(ch, "avg_rounds", "avg_rot_latency", "blocked_share", "avg_messages")


def sweep_shape(rows):
    # one-round designs stay at 1 round and two-round designs at 2 at
    # every ratio; blocking appears only in the blocking family
    for ratio in READ_RATIOS:
        assert rows["cops_snow", ratio]["avg_rounds"] == 1.0
        assert rows["wren", ratio]["avg_rounds"] == 2.0
        for protocol in ("cops_snow", "wren", "contrarian"):
            assert rows[protocol, ratio]["blocked_share"] == 0.0
    # under contention the fast design is at least as cheap as snapshots
    fast = rows["cops_snow", 0.5]["avg_rot_latency"]
    assert fast <= rows["wren", 0.5]["avg_rot_latency"]
    assert fast <= rows["cure", 0.5]["avg_rot_latency"]


def wire_row(protocol, n_txns):
    spec = WorkloadSpec(n_txns=n_txns, read_ratio=0.6, read_size=(2, 3), seed=17)
    ch = measure(protocol, spec, objects=8, n_servers=4)
    return columns(ch, "avg_value_bytes", "avg_metadata_bytes")


def wire_shape(rows):
    # COPS-RW ships far more value bytes than any one-value design, and
    # more as the causal store fills ("prohibitively big amount of data")
    values = {p: rows[p, 150]["avg_value_bytes"] for p in WIRE_PROTOCOLS}
    assert values.pop("cops_rw") > 2 * max(values.values())
    short, long = rows["cops_rw", 30], rows["cops_rw", 200]
    assert long["avg_value_bytes"] > 1.5 * short["avg_value_bytes"], (short, long)
    # vector metadata costs more than GentleRain's scalar
    metadata = {p: rows[p, 150]["avg_metadata_bytes"] for p in WIRE_PROTOCOLS}
    assert metadata["orbe"] > metadata["gentlerain"]


def scaling_row(protocol, servers, clients):
    spec = WorkloadSpec(n_txns=100, read_ratio=0.7, read_size=(2, 4), seed=23)
    deployment = dict(objects=2 * servers, n_servers=servers, clients=clients)
    ch = measure(protocol, spec, **deployment)
    return columns(ch, "avg_messages", "avg_rot_latency", "events_per_txn")


def scaling_shape(rows):
    # COPS-SNOW's ROT messages grow only with the read fan-out and stay
    # at or below the two-round designs at every cluster size
    for n in SERVER_COUNTS:
        snow, wren = rows["cops_snow", n, 4], rows["wren", n, 4]
        assert snow["avg_messages"] <= wren["avg_messages"]
    # more clients -> more concurrency -> bounded growth in events/txn
    few, many = rows["wren", 2, 2], rows["wren", 2, 8]
    assert many["events_per_txn"] < 4 * few["events_per_txn"]


def visibility_row(protocol):
    """Events from a solo write's invocation until a frozen-adversary
    probe sees all its values; ``None`` if it never does."""
    system = build_system(
        protocol, objects=_objects(2), n_servers=2, clients=("w", "probe"),
        **({"sync_hops": 3} if protocol == "handshake" else {}),
    )
    sim, written = system.sim, {"X0": "a", "X1": "b"}
    wtx = REGISTRY[protocol].supports_wtx
    for i, write in enumerate([written] if wtx else [{"X0": "a"}, {"X1": "b"}]):
        sim.invoke("w", write_only_txn(write, txid=f"t{i}"))
    sched = RoundRobinScheduler()
    for events in range(20_000):
        if core.values_visible(sim, "probe", written, system.service_pids):
            return events
        if not sched.tick(sim, pids=("w", *system.service_pids)):
            break  # quiescent
    return None


def visibility_shape(rows):
    # the §4 model: a fresh reader never sees the write — visibility in
    # the sense of Definition 2 is never reached
    assert [p for p, events in rows.items() if events is None] == ["swiftcloud"]
    # the fast strawman is quickest; COPS-SNOW pays its readers check;
    # Handshake-3 pays its 2K hops
    assert rows["fastclaim"] <= rows["cops_snow"] < rows["handshake"]


def _geo(n_objects, n_dcs, home_dcs):
    """A geo-replicated COPS deployment and its fair transaction driver."""
    system = build_geo_system(
        objects=_objects(n_objects), n_dcs=n_dcs, partitions_per_dc=2,
        clients=tuple(home_dcs), home_dcs=home_dcs,
    )
    return system, partial(system.execute, scheduler=RoundRobinScheduler())


def chain_lag(chain_len):
    """Events from the last write's ack until it is readable at dc1."""
    system, run = _geo(max(2, chain_len), 2, {"a": 0, "b": 1})
    for i in range(chain_len):
        run("a", write_only_txn({f"X{i}": f"v{i}"}, txid=f"w{i}"))
        if i < chain_len - 1:
            run("a", read_only_txn((f"X{i}",), txid=f"r{i}"))  # forge the chain link
    start = system.sim.event_count
    last, value = f"X{chain_len - 1}", f"v{chain_len - 1}"
    for probe in count():
        settled = system.sim.quiescent()
        if run("b", read_only_txn((last,), txid=f"probe{probe}")).reads[last] == value:
            return system.sim.event_count - start
        assert not settled, "replication finished and dc1 still reads the old value"


def home_dc_rounds(n_dcs):
    """Rounds of a home-datacenter ROT as the fleet widens."""
    system, run = _geo(2, n_dcs, {"a": 0})
    with system.sim.recording() as events:
        run("a", write_only_txn({"X0": "v"}, txid="w"))
        run("a", read_only_txn(("X0", "X1"), txid="r"))
    return analysis.characterize(system, system.history(), events, check=False).max_rounds


GEO = {"chain_lag": chain_lag, "home_dc_rounds": home_dc_rounds}


def geo_shape(rows):
    assert rows["chain_lag", 6] > rows["chain_lag", 1]  # deeper chains surface later
    # home-DC reads don't widen with the fleet
    assert all(rows["home_dc_rounds", n_dcs] == 1 for n_dcs in (2, 3, 4))


def adversary_row(protocol, adversary):
    # measure() checks the history: the honest protocols stay consistent
    # under every delay pattern the model admits
    spec = WorkloadSpec(n_txns=60, read_ratio=0.6, read_size=(2, 2), seed=6)
    ch = measure(protocol, spec, objects=3, scheduler=ADVERSARIES[adversary]())
    return round(ch.events_per_txn, 3)


#: ``row(*point)`` measures one grid point into exact ints / rounded
#: ratios; ``shape(rows)`` asserts what must hold across the points
Section = namedtuple("Section", "name grid row shape", defaults=[lambda rows: None])


def grid(*axes):
    return tuple(product(*axes))


SECTIONS = (
    Section("table1", grid(ZOO), table1_row, table1_shape),
    Section("table1_unimplemented", grid(analysis.UNIMPLEMENTED_ROWS),
            lambda system: asdict(analysis.UNIMPLEMENTED_ROWS[system])),
    Section("theorem1_depth", grid((1, 2, 3, 4)), depth_row),
    Section("theorem2", TOPOLOGIES, topology_row),
    Section("limits_3of4", grid(sorted(CORNERS)), corner_row),
    Section("figures", grid(FIGURES),
            lambda name: FIGURES[name]().splitlines(), figures_shape),
    Section("cost", grid(WORKLOAD_ZOO), cost_row, cost_shape),
    Section("read_ratio_sweep", grid(WORKLOAD_ZOO, READ_RATIOS),
            sweep_row, sweep_shape),
    Section("wire_cost", grid(WIRE_PROTOCOLS, (150,)) + grid(("cops_rw",), (30, 200)),
            wire_row, wire_shape),
    Section("server_scaling",
            grid(("cops_snow", "wren", "cure", "spanner"), SERVER_COUNTS, (4,))
            + grid(("wren",), (2,), (2, 8)),
            scaling_row, scaling_shape),
    Section("visibility", grid(ZOO), visibility_row, visibility_shape),
    Section("geo",
            grid(("chain_lag",), (1, 2, 4, 6)) + grid(("home_dc_rounds",), (2, 3, 4)),
            lambda metric, n: GEO[metric](n), geo_shape),
    Section("adversaries",
            grid(("cops", "cops_snow", "wren", "cure", "eiger", "ramp", "spanner"),
                 sorted(ADVERSARIES)),
            adversary_row),
)


def build_ledger():
    """Measure every section, assert its shape, key rows by grid point."""
    ledger = {}
    for section in SECTIONS:
        rows = {point: section.row(*point) for point in section.grid}
        # shapes index a one-axis grid by the bare parameter
        section.shape({p if len(p) > 1 else p[0]: row for p, row in rows.items()})
        ledger[section.name] = {"/".join(map(str, p)): row for p, row in rows.items()}
    ledger["env"] = env_stamp()
    return ledger


def drift(committed, measured, key="ledger"):
    """The keys at which two ledgers differ (``env`` is never compared)."""
    if isinstance(committed, dict) and isinstance(measured, dict):
        for k in sorted((committed.keys() | measured.keys()) - {"env"}):
            yield from drift(committed.get(k), measured.get(k), f"{key}.{k}")
    elif committed != measured:
        yield f"{key}: committed {committed!r}, measured {measured!r}"


def main():
    ledger = build_ledger()
    committed = json.loads(LEDGER_PATH.read_text()) if LEDGER_PATH.exists() else {}
    drifted = list(drift(committed, ledger))
    if drifted:  # a drift-free run keeps the committed file, env stamp and all
        LEDGER_PATH.write_text(json.dumps(ledger, indent=1, ensure_ascii=False) + "\n")
    for line in drifted:
        print(f"DRIFT {line}")
    print(f"paper-ledger: {len(drifted)} drifted key(s) in {len(SECTIONS)} sections")
    return 1 if drifted else 0


if __name__ == "__main__":
    raise SystemExit(main())
