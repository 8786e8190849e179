"""Eiger-style — causal consistency with write-only transactions and
non-blocking multi-round reads.

Table 1 row (Eiger): R ≤ 3, V ≤ 2, non-blocking, WTX, causal consistency.

Write-only transactions use two-phase commit with *commit-time sibling
dependencies*: at commit, each server stores its items with a dependency
list that names both the writing client's causal past and the sibling
items of the same transaction (whose commit timestamps are computable
from the commit message).  Read-only transactions then run the COPS-GT
style check: an optimistic first round, a dependency cut check at the
client, and a second round that fetches exact missing versions.  Because
the sibling items are dependencies, the check also repairs fractured
reads of a write transaction, which is how atomic visibility is kept
without blocking.

A second-round fetch may name a version that is still *prepared* at the
target server (its commit message is in flight); the request itself
proves the commit timestamp, so the server installs the pending items
immediately and answers — non-blocking.  Our variant completes in ≤ 2
rounds (the published Eiger needs up to 3 because of its pending-
transaction indirection); the property class — more than one round,
non-blocking — is the same, and EXPERIMENTS.md records the difference.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.protocols.base import Timestamp, ValueEntry, WriteRequest
from repro.protocols.twophase import (
    ExactReadClient,
    ExactReadServer,
    TwoPhaseClient,
    TwoPhaseServer,
)
from repro.txn.client import ActiveTxn, UnsupportedTransaction
from repro.txn.types import ObjectId, Transaction


class EigerServer(TwoPhaseServer, ExactReadServer):
    def __init__(self, pid, objects, peers, placement):
        super().__init__(pid, objects, peers, placement)
        self.lamport = 0
        #: txid -> (items, deps, sibling placement) awaiting commit
        self.pending: Dict[str, Tuple[Tuple[ValueEntry, ...], tuple, tuple]] = {}

    def stage(self, req: WriteRequest, ts: int) -> None:
        self.pending[req.txid] = (
            req.items,
            tuple(req.meta.get("deps", ())),
            tuple(req.meta.get("siblings", ())),
        )

    def unstage(self, txid: str):
        return self.pending.pop(txid, None)

    def version_fields(self, txid: str, commit_ts: int, staged: tuple) -> Dict[str, Any]:
        # commit-time sibling dependencies: the sibling items of the same
        # transaction, whose timestamps the commit timestamp determines
        items, client_deps, siblings = staged
        local_objs = {item.obj for item in items}
        deps = list(client_deps)
        for sib_obj, sib_server in siblings:
            if sib_obj not in local_objs:
                deps.append((sib_obj, (commit_ts, sib_server, txid)))
        return {"deps": tuple(deps)}


class EigerClient(TwoPhaseClient, ExactReadClient):
    def __init__(self, pid, servers, placement):
        super().__init__(pid, servers, placement)
        self.deps: Dict[ObjectId, Timestamp] = {}
        self.lamport = 0

    def validate(self, txn: Transaction) -> None:
        super().validate(txn)
        if txn.read_set and txn.writes:
            raise UnsupportedTransaction(
                "Eiger transactions are read-only or write-only"
            )

    def prepare_meta(self, siblings: tuple) -> Dict[str, Any]:
        return {
            "client_ts": self.lamport,
            "deps": tuple(self.deps.items()),
            "siblings": siblings,
        }

    def commit_decided(self, active: ActiveTxn, commit_ts: int) -> None:
        active.state["commit_ts"] = commit_ts

    def write_committed(self, active: ActiveTxn) -> None:
        # accumulate (full dependency set — see CopsPutClient.note_put)
        for obj in active.txn.write_set:
            self.deps[obj] = (active.state["commit_ts"], self.primary(obj), active.txn.txid)

    def note_read(self, obj: ObjectId, ts: Timestamp) -> None:
        self.lamport = max(self.lamport, ts[0])
        super().note_read(obj, ts)
