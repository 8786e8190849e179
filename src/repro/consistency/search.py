"""The serialization-search engine shared by the exact checkers.

Both the causal-consistency checker (Definition 1: one serialization per
client, respecting the causal order, legal for that client's
transactions) and the (strict) serializability checker (one global
serialization, legal for everyone) reduce to the same search problem:

    find a linear extension of a given partial order over the
    transaction records such that every record in a designated *legality
    set* reads, for each object, exactly the value of the last preceding
    write (or the initial value ⊥).

The search is a DFS over prefixes with memoization on
``(placed-set, last-written-values)`` — two prefixes that placed the same
transactions and left objects in the same state have identical futures.
Histories here are small (the checkers cap the input size), so the
exponential worst case is acceptable; a step budget turns pathological
instances into an explicit *inconclusive* answer rather than a hang.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.engine.outcome import SearchOutcome
from repro.txn.types import BOTTOM, ObjectId, TxnRecord, Value


@dataclass
class SearchResult(SearchOutcome):
    """Serialization-search outcome, in the engine's budget vocabulary
    (``steps`` and ``exhausted`` come from :class:`SearchOutcome`)."""

    found: bool = False
    order: Optional[List[str]] = None  # txids, when found

    @property
    def conclusive(self) -> bool:
        return self.found or not self.exhausted


def find_legal_serialization(
    records: Sequence[TxnRecord],
    edges: Iterable[Tuple[str, str]],
    legality_clients: Optional[Set[str]] = None,
    max_steps: int = 200_000,
) -> SearchResult:
    """Search for a legal linear extension.

    ``edges`` is the partial order to respect (pairs of txids).
    ``legality_clients`` restricts the read-legality requirement to the
    records of those clients (``None`` = all records must be legal).
    """
    n = len(records)
    if n == 0:
        return SearchResult(found=True, order=[])
    idx = {r.txid: i for i, r in enumerate(records)}
    preds: List[int] = [0] * n  # predecessor counts
    succs: List[List[int]] = [[] for _ in range(n)]
    seen_edges: Set[Tuple[int, int]] = set()
    for a, b in edges:
        ia, ib = idx.get(a), idx.get(b)
        if ia is None or ib is None or ia == ib:
            continue
        if (ia, ib) in seen_edges:
            continue
        seen_edges.add((ia, ib))
        succs[ia].append(ib)
        preds[ib] += 1

    must_be_legal = [
        legality_clients is None or r.client in legality_clients for r in records
    ]

    objects: List[ObjectId] = sorted(
        {o for r in records for o in r.txn.objects}
    )
    obj_idx = {o: i for i, o in enumerate(objects)}

    # state: bitmask of placed records + tuple of last-written values
    init_state: Tuple[Value, ...] = tuple(BOTTOM for _ in objects)
    failed: Set[Tuple[int, Tuple[Value, ...]]] = set()
    steps = 0
    budget_hit = False
    order_out: List[int] = []

    def legal_here(rec: TxnRecord, state: Tuple[Value, ...]) -> bool:
        for obj, val in rec.reads.items():
            if state[obj_idx[obj]] != val:
                return False
        return True

    def apply_writes(rec: TxnRecord, state: Tuple[Value, ...]) -> Tuple[Value, ...]:
        if not rec.txn.writes:
            return state
        lst = list(state)
        for obj, val in rec.txn.writes:
            lst[obj_idx[obj]] = val
        return tuple(lst)

    def retract() -> None:
        """Take back the latest placement: the prefix it led to is dead."""
        i = order_out.pop()
        for j in succs[i]:
            preds[j] += 1

    # The DFS keeps its own stack — one frame per placed transaction would
    # overflow the interpreter's recursion limit on histories past ~1k
    # records.  ``frames`` holds the open prefixes, innermost last, each as
    # [mask, state, next candidate index]; ``order_out[k]`` is the record
    # placed to get from frame k to frame k + 1.
    full = (1 << n) - 1
    found = False
    frames: List[List] = []
    mask, state = 0, init_state
    while True:
        # enter the prefix (mask, state)
        if mask == full:
            found = True
            break
        if (mask, state) in failed:
            retract()  # never the root: ``failed`` is empty on first entry
        else:
            steps += 1
            if steps > max_steps:
                budget_hit = True
                break
            frames.append([mask, state, 0])
        # place the innermost open prefix's next viable candidate, closing
        # (and memoizing as failed) every prefix that has none left
        while frames:
            frame = frames[-1]
            fmask, fstate = frame[0], frame[1]
            for i in range(frame[2], n):
                if fmask & (1 << i) or preds[i] > 0:
                    continue
                rec = records[i]
                if must_be_legal[i] and not legal_here(rec, fstate):
                    continue
                break
            else:
                failed.add((fmask, fstate))
                frames.pop()
                if frames:
                    retract()
                continue
            frame[2] = i + 1
            for j in succs[i]:
                preds[j] -= 1
            order_out.append(i)
            mask = fmask | (1 << i)
            state = apply_writes(rec, fstate)
            break
        else:
            break  # the root prefix closed: no legal extension exists

    if found:
        return SearchResult(
            found=True, order=[records[i].txid for i in order_out], steps=steps
        )
    return SearchResult(found=False, steps=steps, exhausted=budget_hit)
