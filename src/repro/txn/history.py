"""Histories of executions.

The history ``H(α)`` of an execution is the subsequence of invocations
and responses of object operations (Section 2).  We represent it at
transaction granularity: a list of :class:`~repro.txn.types.TxnRecord`
(completed transactions) plus the set of still-active transactions.
This is exactly the information the consistency definitions consume:

* per-client projections ``H_c`` and program order ``<_{H|c}``;
* ``complete(H)`` — the completed transactions;
* real-time precedence (``T1`` completes before ``T2`` is invoked);
* the reads-from function (well defined because the harness generates
  globally unique written values, the paper's simplifying assumption).

Derived indices (writer index, per-client projections, reads-from,
causal order, …) are caches keyed on a token of the record identities:
repeated checker calls on the same history reuse them, and any change
to ``records`` (append, replacement, reordering) is detected and
rebuilds them from scratch.  Records are frozen.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.txn.types import BOTTOM, ObjectId, Transaction, TxnRecord, Value


class CausalOrder:
    """A strict partial order on transaction ids with fast ``<`` queries.

    Reach-sets are stored as integer bitmasks (one Python big-int row
    per node), so ``lt`` is a single bit test and closure updates are
    word-parallel ``|=`` operations.  The order supports two modes of
    construction:

    * :meth:`from_edges` — batch: build the transitive closure of an
      edge set in one pass (raises on cycles);
    * :meth:`add_node` / :meth:`add_edge` / :meth:`extend` — append
      path: grow the closed order in place.  ``add_edge`` returns the
      *closure delta* (the pairs newly related by the edge), which is
      what lets :mod:`repro.consistency.incremental` re-examine only the
      reads and writes an edge could have affected.

    Mutations are recorded on an undo trail: :meth:`checkpoint` returns
    a token and :meth:`rollback` restores the order to that token.
    """

    def __init__(self, nodes: Iterable[str] = ()):
        self.nodes: List[str] = list(nodes)
        self._idx: Dict[str, int] = {n: i for i, n in enumerate(self.nodes)}
        #: reach rows: bit ``j`` of ``_reach[i]`` set iff nodes[i] < nodes[j]
        self._reach: List[int] = [0] * len(self.nodes)
        #: undo trail: ("row", i, old_mask) and ("node", txid) entries
        self._trail: List[Tuple] = []

    # -- batch construction -------------------------------------------------

    @classmethod
    def from_edges(
        cls, nodes: Iterable[str], edges: Iterable[Tuple[str, str]]
    ) -> "CausalOrder":
        order = cls(nodes)
        succ: Dict[int, Set[int]] = defaultdict(set)
        for a, b in edges:
            ia, ib = order._idx.get(a), order._idx.get(b)
            if ia is not None and ib is not None and ia != ib:
                succ[ia].add(ib)
        # transitive closure by reverse-postorder DFS with memoization,
        # on an explicit stack (a causal chain is as deep as the history
        # is long); cycles (which would indicate a corrupted history)
        # are rejected.
        color = [0] * len(order.nodes)  # 0 white, 1 grey, 2 black
        reach = order._reach
        for root in range(len(order.nodes)):
            if color[root]:
                continue
            color[root] = 1
            stack = [(root, iter(succ.get(root, ())))]
            while stack:
                u, pending = stack[-1]
                for v in pending:
                    if color[v] == 1:
                        raise ValueError(
                            "cycle in causal order (corrupted history)"
                        )
                    if color[v] == 0:
                        color[v] = 1
                        stack.append((v, iter(succ.get(v, ()))))
                        break
                else:
                    # every successor is closed: u's row is their union
                    stack.pop()
                    acc = reach[u]
                    for v in succ.get(u, ()):
                        acc |= (1 << v) | reach[v]
                    reach[u] = acc
                    color[u] = 2
        return order

    # -- append path --------------------------------------------------------

    def add_node(self, txid: str) -> int:
        """Append a node (no relations yet); returns its index."""
        if txid in self._idx:
            raise ValueError(f"duplicate node {txid!r} in causal order")
        i = len(self.nodes)
        self.nodes.append(txid)
        self._idx[txid] = i
        self._reach.append(0)
        self._trail.append(("node", txid))
        return i

    def add_edge(self, a: str, b: str) -> List[Tuple[str, str]]:
        """Relate ``a < b``, close transitively, and return the delta.

        The delta is the list of ``(x, y)`` pairs (txids) that were *not*
        related before this call and are now — including ``(a, b)``
        itself when new.  Raises :class:`ValueError` if the edge would
        create a cycle; the order is unchanged in that case.
        """
        ia, ib = self._idx[a], self._idx[b]
        if ia == ib or (self._reach[ib] >> ia) & 1:
            raise ValueError("cycle in causal order (corrupted history)")
        targets = self._reach[ib] | (1 << ib)
        reach = self._reach
        nodes = self.nodes
        delta: List[Tuple[str, str]] = []
        ubit = 1 << ia
        for w in range(len(nodes)):
            if w != ia and not (reach[w] & ubit):
                continue
            new = targets & ~reach[w]
            if not new:
                continue
            self._trail.append(("row", w, reach[w]))
            reach[w] |= new
            x = nodes[w]
            while new:
                low = new & -new
                delta.append((x, nodes[low.bit_length() - 1]))
                new ^= low
        return delta

    def extend(self, edges: Iterable[Tuple[str, str]]) -> List[Tuple[str, str]]:
        """Add several edges; returns the concatenated closure delta."""
        delta: List[Tuple[str, str]] = []
        for a, b in edges:
            delta.extend(self.add_edge(a, b))
        return delta

    # -- checkpoint/rollback ------------------------------------------------

    def checkpoint(self) -> int:
        return len(self._trail)

    def rollback(self, token: int) -> None:
        trail = self._trail
        while len(trail) > token:
            entry = trail.pop()
            if entry[0] == "row":
                self._reach[entry[1]] = entry[2]
            else:  # "node"
                txid = entry[1]
                self.nodes.pop()
                del self._idx[txid]
                self._reach.pop()

    # -- queries ------------------------------------------------------------

    def __contains__(self, txid: str) -> bool:
        return txid in self._idx

    def lt(self, a: str, b: str) -> bool:
        """True iff ``a <c b`` (strictly causally before)."""
        ia, ib = self._idx.get(a), self._idx.get(b)
        if ia is None or ib is None:
            return False
        return (self._reach[ia] >> ib) & 1 == 1

    def leq(self, a: str, b: str) -> bool:
        return a == b or self.lt(a, b)

    def concurrent(self, a: str, b: str) -> bool:
        return a != b and not self.lt(a, b) and not self.lt(b, a)

    def edges(self) -> List[Tuple[str, str]]:
        out = []
        for i, a in enumerate(self.nodes):
            row = self._reach[i]
            while row:
                low = row & -row
                out.append((a, self.nodes[low.bit_length() - 1]))
                row ^= low
        return out


class _Derived:
    """The cached derived indices of one list of records.

    ``token`` is the tuple of record identities the cache covers; a
    history whose token differs rebuilds the cache.
    """

    __slots__ = (
        "token",
        "by_txid",
        "writer_index",
        "writers_by_object",
        "per_client",
        "rf_by_reader",
        "pending_reads",
        "order",
        "realtime",
    )

    def __init__(self) -> None:
        self.token: Tuple[int, ...] = ()
        self.by_txid: Dict[str, TxnRecord] = {}
        self.writer_index: Dict[Tuple[ObjectId, Value], TxnRecord] = {}
        self.writers_by_object: Dict[ObjectId, List[TxnRecord]] = {}
        self.per_client: Dict[str, List[TxnRecord]] = {}
        #: reader txid -> {obj: writer txid} in the reader's reads order
        self.rf_by_reader: Dict[str, Dict[ObjectId, str]] = {}
        #: non-⊥ reads whose writer has not been seen (yet)
        self.pending_reads: Dict[Tuple[ObjectId, Value], List[TxnRecord]] = {}
        self.order: Optional[CausalOrder] = None
        self.realtime: Optional[List[Tuple[str, str]]] = None

    # -- consuming records ---------------------------------------------------

    def consume(self, rec: TxnRecord) -> None:
        """Index one record."""
        self.by_txid[rec.txid] = rec
        client_recs = self.per_client.setdefault(rec.client, [])
        # program order = stable sort by invoked_at (ties keep record
        # order), so appending is the in-order case
        if not client_recs or client_recs[-1].invoked_at <= rec.invoked_at:
            client_recs.append(rec)
        else:
            keys = [r.invoked_at for r in client_recs]
            client_recs.insert(bisect_right(keys, rec.invoked_at), rec)
        rf = self.rf_by_reader.setdefault(rec.txid, {})
        for obj, val in rec.reads.items():
            if val is BOTTOM:
                continue
            key = (obj, val)
            w = self.writer_index.get(key)
            if w is not None:
                if w.txid != rec.txid:
                    rf[obj] = w.txid
            else:
                self.pending_reads.setdefault(key, []).append(rec)
        for obj, val in rec.txn.writes:
            key = (obj, val)
            self.writer_index[key] = rec
            self.writers_by_object.setdefault(obj, []).append(rec)
            # a late writer: readers that observed this version before
            # its writer committed now get their reads-from edge
            for reader in self.pending_reads.pop(key, ()):  # noqa: B909
                if reader.txid != rec.txid:
                    self.rf_by_reader[reader.txid][obj] = rec.txid

    def reads_from(self) -> List[Tuple[str, str]]:
        """Reads-from edges in the batch order (reader by reader)."""
        out: List[Tuple[str, str]] = []
        for reader_txid, by_obj in self.rf_by_reader.items():
            rec = self.by_txid[reader_txid]
            for obj in rec.reads:
                w = by_obj.get(obj)
                if w is not None:
                    out.append((w, reader_txid))
        return out

    def program_order(self) -> List[Tuple[str, str]]:
        out: List[Tuple[str, str]] = []
        for c in sorted(self.per_client):
            recs = self.per_client[c]
            for a, b in zip(recs, recs[1:]):
                out.append((a.txid, b.txid))
        return out


@dataclass
class History:
    """A transactional history."""

    records: List[TxnRecord] = field(default_factory=list)
    active: List[Transaction] = field(default_factory=list)

    # -- structure ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def clients(self) -> Tuple[str, ...]:
        return tuple(sorted(self._derived().per_client))

    def objects(self) -> Tuple[ObjectId, ...]:
        objs: Set[ObjectId] = set()
        for r in self.records:
            objs |= set(r.txn.objects)
        return tuple(sorted(objs))

    # -- the derived-index cache -------------------------------------------

    def _derived(self) -> _Derived:
        """Validate or (re)build the cached derived indices: an unchanged
        token of record identities reuses the cache as-is, any other
        rebuilds it from scratch."""
        token = tuple(map(id, self.records))
        cache: Optional[_Derived] = self.__dict__.get("_cache")
        if cache is None or cache.token != token:
            cache = self.__dict__["_cache"] = _Derived()
            for rec in self.records:
                cache.consume(rec)
            cache.token = token
        return cache

    def per_client(self, client: str) -> List[TxnRecord]:
        """``H_c``: this client's records in program order."""
        return list(self._derived().per_client.get(client, ()))

    def by_txid(self) -> Dict[str, TxnRecord]:
        return self._derived().by_txid

    # -- derived relations ---------------------------------------------------

    def check_unique_values(self) -> None:
        """Ensure all written values are distinct (checker precondition)."""
        seen: Dict[Tuple[ObjectId, Value], str] = {}
        for r in self.records:
            for obj, val in r.txn.writes:
                key = (obj, val)
                if key in seen and seen[key] != r.txid:
                    raise ValueError(
                        f"value {val!r} for {obj} written by both "
                        f"{seen[key]} and {r.txid}"
                    )
                seen[key] = r.txid

    def writer_index(self) -> Dict[Tuple[ObjectId, Value], TxnRecord]:
        """Map (object, value) → the record that wrote it.  Cached; treat
        as read-only."""
        return self._derived().writer_index

    def writers_by_object(self) -> Dict[ObjectId, List[TxnRecord]]:
        """Map object → its writers in record order.  Cached; read-only."""
        return self._derived().writers_by_object

    def program_order(self) -> List[Tuple[str, str]]:
        """Immediate program-order edges ``(earlier_txid, later_txid)``."""
        return self._derived().program_order()

    def reads_from(self) -> List[Tuple[str, str]]:
        """Reads-from edges ``(writer_txid, reader_txid)``.

        Reads returning ⊥/unknown values produce no edge.
        """
        return self._derived().reads_from()

    def causal_order(self) -> "CausalOrder":
        """The causal relation: transitive closure of program order ∪ reads-from.

        Cached with the other derived indices; a cycle raises
        :class:`ValueError` from the batch build on every call.
        """
        cache = self._derived()
        if cache.order is None:
            cache.order = CausalOrder.from_edges(
                [r.txid for r in self.records],
                cache.program_order() + cache.reads_from(),
            )
        return cache.order

    def realtime_edges(self) -> List[Tuple[str, str]]:
        """The covering edges of real-time precedence (``T1`` completes
        before ``T2`` is invoked).

        Precedence is an interval order, so ``a → b`` is implied by two
        other edges iff some ``x`` that completed before ``b`` was invoked
        after ``a`` completed.  One sweep in invocation order keeps
        ``a → b`` iff ``a.completed_at`` reaches the latest ``invoked_at``
        of the records completed before ``b``: O(n log n + edges).  The
        transitive closure is the whole relation, which is all the
        serialization search needs.
        """
        cache = self._derived()
        if cache.realtime is not None:
            return cache.realtime
        by_invoked = sorted(self.records, key=lambda r: r.invoked_at)
        by_completed = sorted(self.records, key=lambda r: r.completed_at)
        edges: List[Tuple[str, str]] = []
        lo = i = 0  # by_completed[lo:i]: the covering predecessors of b
        n = len(by_completed)
        latest = float("-inf")  # max invoked_at of by_completed[:i]
        for b in by_invoked:
            while i < n and by_completed[i].completed_at < b.invoked_at:
                latest = max(latest, by_completed[i].invoked_at)
                i += 1
            while lo < i and by_completed[lo].completed_at < latest:
                lo += 1
            edges.extend((a.txid, b.txid) for a in by_completed[lo:i])
        cache.realtime = edges
        return edges


def build_history(sim, clients: Optional[Iterable[str]] = None) -> History:
    """Extract the history from a simulation's client processes."""
    from repro.txn.client import ClientBase  # local import avoids a cycle

    wanted = None if clients is None else set(clients)
    hist = History()
    for pid, proc in sim.processes.items():
        if not isinstance(proc, ClientBase):
            continue
        if wanted is not None and pid not in wanted:
            continue
        hist.records.extend(proc.completed)
        if proc.current is not None:
            hist.active.append(proc.current.txn)
        hist.active.extend(proc.pending)
    hist.records.sort(key=lambda r: (r.invoked_at, r.txid))
    return hist

