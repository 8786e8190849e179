#!/usr/bin/env python3
"""The §4 loophole: beating the theorem by weakening progress.

SwiftCloud and Eiger-PS (the dagger rows of Table 1) support fast
read-only transactions AND multi-object write transactions — apparently
contradicting the theorem.  Section 4 explains: they live in a different
system model, where "the values they write may be invisible to some
clients for an indefinitely long time".  This example makes the loophole
tangible:

1. a SwiftCloud-style store answers reads in one non-blocking round and
   commits multi-object writes — measured fast, measured WTX, verified
   causally consistent;
2. but a *fresh* client reads the initial values no matter how long ago
   the writes completed: Definition 2 visibility is never reached, so
   the minimal-progress premise (Definition 3) fails — which is exactly
   the premise the theorem needs;
3. ask the store to be fresh (sync before reading) and the theorem
   snaps back: reads now take two rounds.
"""

from repro import Store
from repro.analysis.metrics import analyze_transactions
from repro.core import check_impossibility


def main() -> None:
    print("=" * 68)
    print("1. SwiftCloud-style: fast reads + write transactions ... ")
    print("=" * 68)
    store = Store(
        protocol="swiftcloud",
        objects=["X0", "X1"],
        n_servers=2,
        clients=["writer", "veteran", "fresh1", "fresh2"],
        seed=7,
        sync_every=0,
    )
    with store.system.sim.recording() as events:
        store.write("writer", {"X0": "new0", "X1": "new1"})  # multi-object WTX!
        store.settle()
        print("writer committed the multi-object transaction; system quiescent")

        # a veteran client (who has read before) catches up via piggybacking
        store.read("veteran", ["X0"])
        print(f"veteran's second read: {store.read('veteran', ['X0', 'X1'])}")

    stats = analyze_transactions(events, store.history(), store.servers)
    rot = [s for s in stats.values() if s.read_only][-1]
    print(
        f"measured: rounds={rot.rounds}, blocked={rot.blocked}, "
        f"values/object={rot.max_values_per_object} -> fast ROT + WTX!"
    )
    print(f"consistency: {store.check_consistency(exact=True).describe()}")

    print()
    print("=" * 68)
    print("2. ... paid for with unbounded staleness")
    print("=" * 68)
    for reader in ("fresh1", "fresh2"):
        print(f"{reader} (never read before) sees: {store.read(reader, ['X0', 'X1'])}")
    print(
        "fresh readers see the INITIAL values (⊥) long after the write\n"
        "completed — Definition 2 visibility never holds, so the theorem's\n"
        "minimal-progress premise (Definition 3) is violated."
    )
    verdict = check_impossibility("swiftcloud", max_k=3)
    print(f"engine verdict: {verdict.outcome} — {verdict.detail[:70]}...")

    print()
    print("=" * 68)
    print("3. Demand freshness and the theorem returns")
    print("=" * 68)
    verdict = check_impossibility("swiftcloud", max_k=3, sync_every=1)
    print(f"with sync-before-read: {verdict.outcome}")
    print(f"  {verdict.detail}")


if __name__ == "__main__":
    main()
