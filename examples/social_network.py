#!/usr/bin/env python3
"""A read-dominated social-network workload across the protocol zoo.

The paper motivates fast read-only transactions with read-dominated
production workloads (Facebook reports well above 95 % reads).  This
example models a tiny social app — user profiles, posts, and timeline
reads that must be causally consistent ("never see the reply without
the post") — and runs the *same* logical workload on several systems,
reporting the latency shape the theorem predicts:

* COPS-SNOW reads in one round but cannot post-with-profile-update
  atomically;
* Wren/Cure keep atomic multi-object writes but pay a snapshot round;
* Spanner reads in one round but blocks behind writers;
* FastClaim "wins" every metric and silently corrupts causality.
"""

from repro.analysis.metrics import analyze_transactions, measure
from repro.analysis.tables import format_table
from repro.consistency import find_causal_anomalies
from repro.protocols import build_system
from repro.sim.scheduler import RandomScheduler
from repro.txn.client import UnsupportedTransaction
from repro.txn.types import read_only_txn, write_only_txn
from repro.workloads import WorkloadSpec

USERS = ["alice", "bob", "carol"]
OBJECTS = [f"profile:{u}" for u in USERS] + [f"posts:{u}" for u in USERS]

PROTOCOLS = ["cops_snow", "cops", "contrarian", "wren", "cure", "spanner", "fastclaim"]


def timeline_scenario(protocol: str) -> dict:
    """Post-and-reply: the classic causal anomaly scenario."""
    system = build_system(
        protocol, objects=OBJECTS, n_servers=3, clients=("alice", "bob", "carol")
    )

    def w(client, writes):
        try:
            system.execute(client, write_only_txn(writes, txid=f"{client}:post"))
            return True
        except UnsupportedTransaction:
            # restricted protocols post without the atomic profile bump
            for obj, val in writes.items():
                txn = write_only_txn({obj: val}, txid=f"{client}:{obj}")
                system.execute(client, txn)
            return False

    with system.sim.recording() as events:
        atomic = w("alice", {"posts:alice": "lunch pics!", "profile:alice": "1 post"})
        # bob reads alice's post, then replies
        got = system.execute("bob", read_only_txn(("posts:alice",), txid="bob:read"))
        w("bob", {"posts:bob": f"re: {got.reads['posts:alice']}"})
        # carol reads both timelines
        rec = system.execute(
            "carol", read_only_txn(("posts:alice", "posts:bob"), txid="timeline")
        )
        system.settle()
    stats = analyze_transactions(events, system.history(), system.servers)
    anomalies = find_causal_anomalies(system.history())
    return {
        "atomic_post": atomic,
        "timeline": dict(rec.reads),
        "timeline_rounds": stats["timeline"].rounds,
        "anomalies": len(anomalies),
    }


def bulk_run(protocol: str) -> dict:
    spec = WorkloadSpec(
        n_txns=150, read_ratio=0.95, read_size=(2, 4), write_size=(1, 2),
        zipf_theta=0.9, seed=20,
    )
    ch = measure(
        protocol, spec, scheduler=RandomScheduler(99), objects=OBJECTS,
        n_servers=3, clients=tuple(USERS) + ("dave", "erin"),
    )
    verdict = "ok" if ch.consistency_ok else "VIOLATED"
    return {
        "rounds_avg": ch.avg_rounds,
        "rounds_max": ch.max_rounds,
        "blocked_%": 100.0 * ch.blocked_share,
        "latency_avg": ch.avg_rot_latency,
        "consistency": f"{ch.consistency_level}:{verdict}",
    }


def main() -> None:
    print("Scenario 1 — post & reply (the anomaly the intro warns about)")
    rows = []
    for p in PROTOCOLS:
        r = timeline_scenario(p)
        rows.append(
            [
                p,
                "yes" if r["atomic_post"] else "no",
                r["timeline_rounds"],
                r["anomalies"],
            ]
        )
    print(
        format_table(
            ["protocol", "atomic post+profile", "timeline rounds", "causal anomalies"],
            rows,
        )
    )

    print()
    print("Scenario 2 — 95%-read timeline workload, 150 transactions")
    rows = []
    for p in PROTOCOLS:
        r = bulk_run(p)
        rows.append(
            [
                p,
                f"{r['rounds_avg']:.2f}",
                r["rounds_max"],
                f"{r['blocked_%']:.0f}%",
                f"{r['latency_avg']:.1f}",
                r["consistency"],
            ]
        )
    print(
        format_table(
            [
                "protocol",
                "avg ROT rounds",
                "max",
                "blocked ROTs",
                "avg latency (events)",
                "verified",
            ],
            rows,
        )
    )
    print()
    print(
        "The shape the theorem predicts: only COPS-SNOW (no write txns)\n"
        "and FastClaim (not actually causal) read in one fast round."
    )


if __name__ == "__main__":
    main()
