"""RAMP-Fast — read atomicity with non-blocking reads and write transactions.

Table 1 row: R ≤ 2, V ≤ 2, non-blocking, WTX, **read atomicity** (weaker
than causal consistency: no cross-transaction causality, only no
fractured reads).

Write transactions are two-phase: PREPARE ships each server its items
plus the transaction's sibling list; COMMIT installs them at the
transaction timestamp.  A read-only transaction optimistically reads the
latest committed version of each object; the attached sibling metadata
lets the client detect a fractured read (it saw transaction T's write to
X but an older version of sibling Y) and repair it with a second round
that fetches Y's version by exact timestamp — served from the prepared
set if the commit message has not arrived yet (RAMP's signature trick,
which keeps reads non-blocking).
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple

from repro.protocols.base import (
    INITIAL_TS,
    Timestamp,
    ValueEntry,
    Version,
    WriteRequest,
)
from repro.protocols.twophase import (
    ExactReadClient,
    ExactReadServer,
    TwoPhaseClient,
    TwoPhaseServer,
)
from repro.txn.client import UnsupportedTransaction
from repro.txn.types import ObjectId, Transaction


class RampServer(TwoPhaseServer, ExactReadServer):
    def __init__(self, pid, objects, peers, placement):
        super().__init__(pid, objects, peers, placement)
        self.lamport = 0
        #: txid -> (items, siblings)
        self.prepared: Dict[str, Tuple[Tuple[ValueEntry, ...], tuple]] = {}

    def stage(self, req: WriteRequest, ts: int) -> None:
        self.prepared[req.txid] = (req.items, tuple(req.meta.get("siblings", ())))

    def version_fields(self, txid: str, commit_ts: int, staged: tuple) -> Dict[str, Any]:
        return {"meta": {"siblings": staged[1]}}

    def read_entry(self, version: Version) -> ValueEntry:
        return version.entry(siblings=version.meta.get("siblings", ()))


class RampClient(TwoPhaseClient, ExactReadClient):
    def __init__(self, pid, servers, placement):
        super().__init__(pid, servers, placement)
        self.lamport = 0

    def validate(self, txn: Transaction) -> None:
        super().validate(txn)
        if txn.read_set and txn.writes:
            raise UnsupportedTransaction(
                "RAMP transactions are read-only or write-only"
            )

    def prepare_meta(self, siblings: tuple) -> Dict[str, Any]:
        return {"client_ts": self.lamport, "siblings": siblings}

    def missing_versions(self, entries: Mapping[ObjectId, ValueEntry]) -> Dict[ObjectId, Timestamp]:
        """Detect fractured reads: the sibling versions round 1 missed."""
        needed: Dict[ObjectId, Timestamp] = {}
        for entry in entries.values():
            if entry.ts == INITIAL_TS:
                continue
            for sib_obj, sib_server in entry.meta.get("siblings", ()):
                if sib_obj not in entries or sib_obj == entry.obj:
                    continue
                sib_ts = (entry.ts[0], sib_server, entry.ts[2])
                if entries[sib_obj].ts < sib_ts:
                    if sib_obj not in needed or sib_ts > needed[sib_obj]:
                        needed[sib_obj] = sib_ts
        return needed

    def note_read(self, obj: ObjectId, ts: Timestamp) -> None:
        self.lamport = max(self.lamport, ts[0])
