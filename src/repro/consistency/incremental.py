"""The incremental causal checker: delta-driven, checkpointable.

The batch scan :func:`~repro.consistency.causal.find_causal_anomalies`
recomputes everything — history sort, writer index, transitive closure,
full anomaly scan — from scratch on every call.  Along a DFS of the
schedule space each checked node's history extends its parent's by at
most one committed transaction, so almost all of that work is repeated.
:class:`IncrementalCausalChecker` makes the cost of a verdict
proportional to the *delta*:

* :meth:`IncrementalChecker.advance` consumes newly-committed records:
  new reads are checked against the existing writer index, existing
  reads are re-checked only against the new writers, and the causal
  order grows by a closure *delta* (:meth:`CausalOrder.add_edge`) whose
  newly-related pairs are the only pairs re-examined.
* :meth:`IncrementalChecker.checkpoint` / :meth:`rollback` are built to
  run in lockstep with a DFS's fork/restore: backtracking reuses the
  parent's checker state instead of recomputing it.  All state mutation
  goes through an undo trail, so a rollback costs O(delta) too.
* :meth:`IncrementalCausalChecker.anomalies` returns the verdict for the
  records consumed so far — **bit-identical** to running the batch scan
  on those records sorted by ``(invoked_at, txid)`` (the order
  :func:`~repro.txn.history.build_history` produces).  Identity includes
  anomaly *order*: found anomalies are kept as a set and sorted into the
  batch scan's emission order at verdict time.

Correctness relies on one contract: records of the **same client must
arrive in program order** (true of any simulation — a client runs one
transaction at a time); records of different clients may interleave
arbitrarily, including a reader arriving before the writer it read from
(the read stays *pending* and is resolved when the writer commits).

The exploration engine does not run this checker: it decides every
quiescent leaf, at every checker level, with the batch scan.  The batch
scan is also this module's reference oracle: the hypothesis suite
asserts equality on random histories under arbitrary
append/checkpoint/rollback sequences.  See ``docs/model.md``, "Checker
cost".
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.consistency.causal import CausalAnomaly
from repro.txn.history import CausalOrder
from repro.txn.types import BOTTOM, ObjectId, TxnRecord, Value

#: sentinel sort key ordering the "<nonexistent>" pseudo-writer first
_NO_WRITER_KEY = (-1, "")


class IncrementalChecker:
    """Shared delta machinery: indices, causal closure, undo trail.

    Subclasses implement :meth:`_on_record` (react to one consumed
    record, its newly-established reads-from facts and the causal
    closure delta) and :meth:`anomalies` (the verdict).
    """

    name = "?"

    def __init__(self) -> None:
        self.order = CausalOrder()
        self.recs: List[TxnRecord] = []
        self.by_txid: Dict[str, TxnRecord] = {}
        self.last_of_client: Dict[str, TxnRecord] = {}
        self.writer_index: Dict[Tuple[ObjectId, Value], TxnRecord] = {}
        self.writers_by_object: Dict[ObjectId, List[TxnRecord]] = {}
        #: (obj, value) -> readers of exactly that version (reads-from)
        self.readers_of: Dict[Tuple[ObjectId, Value], List[TxnRecord]] = {}
        #: non-⊥ reads whose writer has not committed yet
        self.pending_reads: Dict[Tuple[ObjectId, Value], List[TxnRecord]] = {}
        #: corrupt-history error (cycle / duplicate value), raised by verdicts
        self._errbox: Dict[str, Optional[ValueError]] = {"e": None}
        self._trail: List[Tuple] = []

    # -- undo trail ---------------------------------------------------------

    def _dset(self, d: dict, k, v) -> None:
        if k in d:
            self._trail.append(("set", d, k, d[k]))
        else:
            self._trail.append(("del", d, k))
        d[k] = v

    def _dpop(self, d: dict, k) -> None:
        self._trail.append(("set", d, k, d.pop(k)))

    def _lappend(self, lst: list, v) -> None:
        lst.append(v)
        self._trail.append(("pop", lst))

    def _set_err(self, exc: ValueError) -> None:
        self._dset(self._errbox, "e", exc)

    def checkpoint(self) -> Tuple[int, int]:
        return (len(self._trail), self.order.checkpoint())

    def rollback(self, token: Tuple[int, int]) -> None:
        n, order_token = token
        trail = self._trail
        while len(trail) > n:
            entry = trail.pop()
            op = entry[0]
            if op == "set":
                entry[1][entry[2]] = entry[3]
            elif op == "del":
                del entry[1][entry[2]]
            else:  # "pop"
                entry[1].pop()
        self.order.rollback(order_token)

    # -- consuming the delta ------------------------------------------------

    def advance(self, records: Sequence[TxnRecord]) -> None:
        """Consume newly-committed records (same-client ones in program
        order); a no-op once the history is corrupt."""
        for rec in records:
            if self._errbox["e"] is None:
                self._consume(rec)

    def _consume(self, rec: TxnRecord) -> None:
        for obj, val in rec.txn.writes:
            prev = self.writer_index.get((obj, val))
            if prev is not None and prev.txid != rec.txid:
                self._set_err(
                    ValueError(
                        f"value {val!r} for {obj} written by both "
                        f"{prev.txid} and {rec.txid}"
                    )
                )
                return
        self._lappend(self.recs, rec)
        self._dset(self.by_txid, rec.txid, rec)
        try:
            self.order.add_node(rec.txid)
        except ValueError as exc:
            self._set_err(exc)
            return
        edges: List[Tuple[str, str]] = []
        prev_rec = self.last_of_client.get(rec.client)
        if prev_rec is not None:
            edges.append((prev_rec.txid, rec.txid))
        self._dset(self.last_of_client, rec.client, rec)
        #: reads-from facts established by this record, as
        #: (reader, obj, value, writer) — both directions: this record's
        #: own resolved reads, and pending reads it resolves as a writer
        resolutions: List[Tuple[TxnRecord, ObjectId, Value, TxnRecord]] = []
        for obj, val in rec.txn.writes:
            key = (obj, val)
            self._dset(self.writer_index, key, rec)
            self._lappend(self.writers_by_object.setdefault(obj, []), rec)
            pend = self.pending_reads.get(key)
            if pend:
                self._dpop(self.pending_reads, key)
                for reader in pend:
                    if reader.txid != rec.txid:
                        edges.append((rec.txid, reader.txid))
                    self._lappend(self.readers_of.setdefault(key, []), reader)
                    resolutions.append((reader, obj, val, rec))
        for obj, val in rec.reads.items():
            if val is BOTTOM:
                continue
            key = (obj, val)
            w = self.writer_index.get(key)
            if w is not None:
                if w.txid != rec.txid:
                    edges.append((w.txid, rec.txid))
                self._lappend(self.readers_of.setdefault(key, []), rec)
                resolutions.append((rec, obj, val, w))
            else:
                self._lappend(self.pending_reads.setdefault(key, []), rec)
        delta: List[Tuple[str, str]] = []
        for a, b in edges:
            try:
                delta.extend(self.order.add_edge(a, b))
            except ValueError as exc:
                self._set_err(exc)
                return
        self._on_record(rec, resolutions, delta)

    # -- subclass hooks -----------------------------------------------------

    def _on_record(self, rec, resolutions, delta) -> None:
        raise NotImplementedError

    def anomalies(self) -> List[Any]:
        raise NotImplementedError

    def _raise_if_corrupt(self) -> None:
        if self._errbox["e"] is not None:
            raise self._errbox["e"]

    def _rec_key(self, txid: str) -> Tuple[int, str]:
        r = self.by_txid[txid]
        return (r.invoked_at, r.txid)


class IncrementalCausalChecker(IncrementalChecker):
    """Delta version of :func:`~repro.consistency.causal.find_causal_anomalies`.

    The witness condition — ``T`` reads ``u`` for ``X`` while some
    ``W'`` also writes ``X`` with ``writer(u) <c W' <c T`` — is
    monotone in the causal order, so each anomaly is discovered exactly
    when its last enabling fact arrives: a read is established
    (checked against the existing writers of its object), or a closure
    pair ``(a, b)`` is added (re-examined once as ``(writer, W')`` and
    once as ``(W', T)``).
    """

    name = "causal"

    def __init__(self) -> None:
        super().__init__()
        self.found: Dict[CausalAnomaly, None] = {}

    def _emit(
        self,
        reader: str,
        obj: ObjectId,
        val: Value,
        read_writer: Optional[str],
        fresher: TxnRecord,
    ) -> None:
        anomaly = CausalAnomaly(
            reader=reader,
            obj=obj,
            read_value=val,
            read_writer=read_writer,
            fresher_writer=fresher.txid,
            fresher_value=fresher.txn.write_map[obj],
        )
        if anomaly not in self.found:
            self._dset(self.found, anomaly, None)

    def _on_record(self, rec, resolutions, delta) -> None:
        for a, b in delta:
            self._check_pair(a, b)
        for reader, obj, val, writer in resolutions:
            self._scan_read(reader, obj, val, writer)
        for obj, val in rec.reads.items():
            if val is BOTTOM:
                for other in self.writers_by_object.get(obj, ()):
                    if other.txid != rec.txid and self.order.lt(
                        other.txid, rec.txid
                    ):
                        self._emit(rec.txid, obj, BOTTOM, None, other)

    def _scan_read(
        self, reader: TxnRecord, obj: ObjectId, val: Value, writer: TxnRecord
    ) -> None:
        """A read with a known writer: scan every writer of ``obj``."""
        lt = self.order.lt
        for other in self.writers_by_object.get(obj, ()):
            if other.txid == reader.txid or other.txid == writer.txid:
                continue
            if lt(writer.txid, other.txid) and lt(other.txid, reader.txid):
                self._emit(reader.txid, obj, val, writer.txid, other)

    def _check_pair(self, a: str, b: str) -> None:
        """Re-examine a newly-related pair ``a <c b`` both ways."""
        ra, rb = self.by_txid[a], self.by_txid[b]
        lt = self.order.lt
        # a = W', b = the reader T: a fresher write now causally below b
        a_writes = ra.txn.write_map
        if a_writes:
            for obj, val in rb.reads.items():
                if obj not in a_writes:
                    continue
                if val is BOTTOM:
                    self._emit(b, obj, BOTTOM, None, ra)
                    continue
                w = self.writer_index.get((obj, val))
                if w is None or w.txid == a:
                    continue  # pending read, or a is the read's own writer
                if lt(w.txid, a):
                    self._emit(b, obj, val, w.txid, ra)
        # a = writer(u), b = W': a version now causally below a writer
        b_writes = rb.txn.write_map
        if b_writes:
            for obj, val in ra.txn.writes:
                if obj not in b_writes:
                    continue
                for reader in self.readers_of.get((obj, val), ()):
                    if reader.txid == b:
                        continue
                    if lt(b, reader.txid):
                        self._emit(reader.txid, obj, val, a, rb)

    def anomalies(self) -> List[CausalAnomaly]:
        self._raise_if_corrupt()
        if not self.found and not self.pending_reads:
            return []
        out = list(self.found)
        for (obj, val), readers in self.pending_reads.items():
            # a value nobody (yet) wrote: corrupt beyond causality
            for reader in readers:
                out.append(
                    CausalAnomaly(
                        reader=reader.txid,
                        obj=obj,
                        read_value=val,
                        read_writer=None,
                        fresher_writer="<nonexistent>",
                        fresher_value=val,
                    )
                )

        def key(anom: CausalAnomaly):
            reader = self.by_txid[anom.reader]
            slot = list(reader.reads).index(anom.obj)
            if anom.fresher_writer == "<nonexistent>":
                wkey = _NO_WRITER_KEY
            else:
                wkey = self._rec_key(anom.fresher_writer)
            return ((reader.invoked_at, reader.txid), slot, wkey)

        return sorted(out, key=key)
