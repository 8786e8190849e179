#!/usr/bin/env python3
"""Quickstart: a causally consistent distributed store in five minutes.

Spins up a simulated COPS-SNOW deployment (the only design with *fast*
read-only transactions: one round, one value, non-blocking), runs a few
transactions, inspects the history, and verifies causal consistency with
the exact Definition-1 checker.  Then demonstrates the functionality
price: COPS-SNOW refuses multi-object write transactions, and Wren —
which accepts them — needs two rounds to read.
"""

from repro import Store
from repro.txn.client import UnsupportedTransaction
from repro.analysis.metrics import analyze_transactions


def main() -> None:
    print("=" * 64)
    print("1. A COPS-SNOW store: fast reads, single-object writes")
    print("=" * 64)
    store = Store(
        protocol="cops_snow",
        objects=["wallet:alice", "wallet:bob", "ledger"],
        n_servers=2,
        clients=["alice", "bob", "auditor", "probe"],
        seed=42,
    )

    # record the events: the measured properties below are read off them
    with store.system.sim.recording() as events:
        store.write("alice", {"wallet:alice": "100"})
        store.write("bob", {"wallet:bob": "250"})
        print("alice and bob funded their wallets")

        # bob reads alice's wallet, then writes the ledger: a causal chain
        seen = store.read("bob", ["wallet:alice"])
        store.write("bob", {"ledger": f"bob saw alice={seen['wallet:alice']}"})
        print(f"bob recorded: {seen}")

        # the auditor reads everything in ONE round
        audit = store.read("auditor", ["wallet:alice", "wallet:bob", "ledger"])
        print(f"auditor sees: {audit}")

    # measured properties of the auditor's read
    stats = analyze_transactions(events, store.history(), store.servers)
    rot = [s for s in stats.values() if s.read_only][-1]
    print(
        f"auditor's ROT: rounds={rot.rounds}, "
        f"values/object<={rot.max_values_per_object}, blocked={rot.blocked}"
        f"  -> fast={rot.fast}"
    )

    report = store.check_consistency(exact=True)
    print(f"causal consistency: {report.describe()}")

    print()
    print("=" * 64)
    print("2. The price of fast reads: no multi-object write transactions")
    print("=" * 64)
    try:
        store.write("alice", {"wallet:alice": "50", "wallet:bob": "300"})
    except UnsupportedTransaction as exc:
        print(f"COPS-SNOW refused the transfer transaction: {exc}")

    print()
    print("=" * 64)
    print("3. Wren accepts the transfer - but reads now take two rounds")
    print("=" * 64)
    wren = Store(
        protocol="wren",
        objects=["wallet:alice", "wallet:bob"],
        n_servers=2,
        clients=["alice", "auditor"],
        seed=42,
    )
    with wren.system.sim.recording() as events:
        wren.write("alice", {"wallet:alice": "50", "wallet:bob": "300"})
        wren.settle()
        print(f"atomic transfer committed: {wren.read('auditor', ['wallet:alice', 'wallet:bob'])}")
    stats = analyze_transactions(events, wren.history(), wren.servers)
    rot = [s for s in stats.values() if s.read_only][-1]
    print(f"auditor's ROT on Wren: rounds={rot.rounds} (not fast — the theorem at work)")
    print(f"causal consistency: {wren.check_consistency(exact=True).describe()}")


if __name__ == "__main__":
    main()
