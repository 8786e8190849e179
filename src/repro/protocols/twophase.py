"""The two mechanisms Table 1's multi-round rows share, written once.

* **Client-coordinated two-phase commit** (Eiger, RAMP, RAMP-Small, Wren,
  Cure, SwiftCloud).  The client sends each server its group of writes
  in a ``prepare``; every server stages them and answers with a prepare
  timestamp; the client commits every group at ``max(prepare_ts)`` and
  completes on the last ``committed``.  A server installs its staged
  items on ``commit`` — or earlier, when an exact-version read names
  one of them, since the read proves the commit timestamp.
* **The COPS-GT read** (COPS, COPS-Geo, Eiger, RAMP).  An optimistic
  round 1 fetches the newest version of each object; the client computes
  ``needed: obj -> ts``, the versions round 1 missed; round 2 fetches
  exactly those.  A server serves an exact version if it holds it and
  otherwise calls a hook.

Each protocol supplies only small hooks, listed on each class; see
``docs/extending.md`` for a worked example.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.sim.messages import Message, ProcessId
from repro.sim.process import StepContext
from repro.protocols.base import (
    INITIAL_TS,
    ReadReply,
    ReadRequest,
    ServerBase,
    Timestamp,
    TxnClient,
    ValueEntry,
    Version,
    WriteReply,
    WriteRequest,
)
from repro.txn.client import ActiveTxn, UnsupportedTransaction
from repro.txn.types import ObjectId, Transaction

# ---------------------------------------------------------------------------
# two-phase commit
# ---------------------------------------------------------------------------


class TwoPhaseServer(ServerBase):
    """A 2PC participant.

    Hooks: :meth:`stage` (required), :meth:`unstage` and
    :meth:`version_fields`.  The default timestamp rule is a Lamport
    clock in ``self.lamport``, versions stamped ``(commit_ts, pid,
    txid)``; :class:`TwoPCMixin` swaps in the stabilizing clock.
    """

    def handle_write(self, ctx: StepContext, msg: Message, req: WriteRequest) -> None:
        if req.kind == "prepare":
            ts = self.prepare_clock(int(req.meta.get("client_ts", 0)))
            self.stage(req, ts)
            kind, meta = "prepared", {"ts": ts}
        elif req.kind == "commit":
            commit_ts = int(req.meta["commit_ts"])
            self.install_prepared(req.txid, commit_ts)
            kind, meta = "committed", self.committed_meta(commit_ts)
        else:  # pragma: no cover - defensive
            raise NotImplementedError(f"{self.pid}: write kind {req.kind}")
        self.queue_send(ctx, msg.src, WriteReply(txid=req.txid, kind=kind, meta=meta))

    def prepare_clock(self, client_ts: int) -> int:
        self.lamport = max(self.lamport, client_ts) + 1
        return self.lamport

    def stage(self, req: WriteRequest, ts: int) -> None:
        """Hold the prepared items (and whatever the commit needs)."""
        raise NotImplementedError

    def unstage(self, txid: str) -> Optional[tuple]:
        """Pop the staged ``(items, ...)`` of ``txid``; ``None`` if gone."""
        return self.prepared.pop(txid, None)

    def version_fields(self, txid: str, commit_ts: int, staged: tuple) -> Dict[str, Any]:
        """Extra :class:`Version` fields of each installed item."""
        return {}

    def install_prepared(self, txid: str, commit_ts: int) -> None:
        staged = self.unstage(txid)
        if staged is None:
            return  # already installed (e.g. via a read-triggered install)
        self.lamport = max(self.lamport, commit_ts)
        for item in staged[0]:
            self.install(
                Version(
                    obj=item.obj,
                    value=item.value,
                    ts=(commit_ts, self.pid, txid),
                    txid=txid,
                    **self.version_fields(txid, commit_ts, staged),
                )
            )

    def committed_meta(self, commit_ts: int) -> Dict[str, Any]:
        return {"commit_ts": commit_ts}

    def missing_version(
        self, client: ProcessId, req: ReadRequest, obj: ObjectId, ts: Timestamp
    ) -> Optional[Version]:
        # the requested version is still prepared here: the request proves
        # its commit timestamp, so install it now (non-blocking)
        self.install_prepared(ts[2], ts[0])
        return self.find_version(obj, ts) or self.latest(obj)


class TwoPhaseClient(TxnClient):
    """The 2PC coordinator for write-only transactions.

    Hooks: :meth:`prepare_meta` (required), :meth:`write_siblings`,
    :meth:`commit_decided`, :meth:`note_commit` and
    :meth:`write_committed`.
    """

    def begin_write(self, ctx: StepContext, active: ActiveTxn) -> None:
        groups: Dict[ProcessId, List[ValueEntry]] = {}
        for obj, val in active.txn.writes:
            groups.setdefault(self.primary(obj), []).append(ValueEntry(obj, val))
        active.state["phase"] = "prepare"
        active.state["groups"] = {s: tuple(items) for s, items in groups.items()}
        active.state["prepare_ts"] = []
        active.awaiting = set(groups)
        siblings = self.write_siblings(active, groups)
        for server, items in groups.items():
            ctx.send(
                server,
                WriteRequest(
                    txid=active.txn.txid,
                    kind="prepare",
                    items=tuple(items),
                    meta=self.prepare_meta(siblings),
                ),
            )

    def write_siblings(self, active: ActiveTxn, groups: Mapping[ProcessId, Any]) -> tuple:
        """What every participant learns of the others: ``(obj, server)``."""
        return tuple((obj, self.primary(obj)) for obj in active.txn.write_set)

    def prepare_meta(self, siblings: tuple) -> Dict[str, Any]:
        raise NotImplementedError

    def handle_write_reply(
        self, ctx: StepContext, active: ActiveTxn, msg: Message, reply: WriteReply
    ) -> None:
        if reply.kind == "prepared":
            active.state["prepare_ts"].append(int(reply.meta["ts"]))
            active.awaiting.discard(msg.src)
            if not active.awaiting and active.state["phase"] == "prepare":
                commit_ts = max(active.state["prepare_ts"])
                active.state["phase"] = "commit"
                self.commit_decided(active, commit_ts)
                active.awaiting = set(active.state["groups"])
                for server in active.state["groups"]:
                    ctx.send(
                        server,
                        WriteRequest(
                            txid=active.txn.txid,
                            kind="commit",
                            meta={"commit_ts": commit_ts},
                        ),
                    )
        elif reply.kind == "committed":
            self.note_commit(active, msg.src, reply.meta)
            active.awaiting.discard(msg.src)
            if not active.awaiting and active.state["phase"] == "commit":
                self.write_committed(active)
                self.finish(ctx)

    def commit_decided(self, active: ActiveTxn, commit_ts: int) -> None:
        return None

    def note_commit(self, active: ActiveTxn, server: ProcessId, meta: Mapping) -> None:
        self.lamport = max(self.lamport, int(meta["commit_ts"]))

    def write_committed(self, active: ActiveTxn) -> None:
        return None


class TwoPCMixin(TwoPhaseServer):
    """The stabilizing-clock participant (Wren, Cure, SwiftCloud).

    Prepared-but-uncommitted transactions hold the local stable frontier
    down (``local_stable``), which is what makes handed-out snapshots safe.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: txid -> (items, prepare_ts)
        self.prepared: Dict[str, Tuple[Tuple[ValueEntry, ...], int]] = {}
        #: txid -> dependency vector staged at prepare time
        self._dep_vecs: Dict[str, Tuple] = {}
        #: txid -> sibling shards of the transaction, staged at prepare
        self._siblings: Dict[str, Tuple] = {}

    def local_stable(self) -> int:
        base = self.clock
        if self.prepared:
            base = min(base, min(t for _, t in self.prepared.values()) - 1)
        return base

    def prepare_clock(self, client_ts: int) -> int:
        return self.observe_clock(client_ts)

    def stage(self, req: WriteRequest, ts: int) -> None:
        self.prepared[req.txid] = (req.items, ts)
        self._dep_vecs[req.txid] = tuple(req.meta.get("dep_vec", ()))
        self._siblings[req.txid] = tuple(req.meta.get("siblings", ()))
        self._dirty = True

    def install_prepared(self, txid: str, commit_ts: int) -> None:
        items, _ = self.prepared.pop(txid)
        deps = list(self._dep_vecs.pop(txid, ()))
        # atomic visibility under vector snapshots: a snapshot that
        # includes this shard of the transaction must include every
        # sibling shard — encode the whole commit vector as deps
        for sib in self._siblings.pop(txid, ()):
            if sib != self.pid:
                deps.append((sib, commit_ts))
        deps = tuple(deps)
        self.observe_clock(commit_ts)
        for item in items:
            self.install(
                Version(
                    obj=item.obj,
                    value=item.value,
                    ts=(commit_ts, self.pid),
                    txid=txid,
                    deps=deps,
                )
            )
        self._dirty = True

    def committed_meta(self, commit_ts: int) -> Dict[str, Any]:
        return {"ts": (commit_ts, self.pid)}


class TwoPCClientMixin(TwoPhaseClient):
    """The stabilizing-clock coordinator (Wren, Cure, SwiftCloud)."""

    def validate(self, txn: Transaction) -> None:
        super().validate(txn)
        if txn.read_set and txn.writes:
            raise UnsupportedTransaction(
                f"{type(self).__name__[:-6]} supports read-only and write-only "
                "transactions"
            )

    def write_siblings(self, active: ActiveTxn, groups: Mapping[ProcessId, Any]) -> tuple:
        return tuple(sorted(groups))

    def prepare_meta(self, siblings: tuple) -> Dict[str, Any]:
        return {
            "client_ts": self.client_ts_meta(),
            "dep_vec": self.dep_meta(),
            "siblings": siblings,
        }

    def note_commit(self, active: ActiveTxn, server: ProcessId, meta: Mapping) -> None:
        ts = meta["ts"]
        self.note_ts(ts)
        if self.use_write_cache:
            for item in active.state["groups"][server]:
                self.write_cache[item.obj] = ValueEntry(
                    item.obj, item.value, ts=(ts[0], server), txid=active.txn.txid
                )


# ---------------------------------------------------------------------------
# the COPS-GT read
# ---------------------------------------------------------------------------


class ExactReadServer(ServerBase):
    """Serves round 1 from the latest versions and round 2 exactly.

    Hooks: :meth:`missing_version` (when the exact version is not here)
    and :meth:`read_entry`.
    """

    def handle_read(self, ctx: StepContext, msg: Message, req: ReadRequest) -> None:
        self.serve_read(ctx, msg.src, req)

    def serve_read(self, ctx: StepContext, client: ProcessId, req: ReadRequest) -> None:
        wanted: Mapping[ObjectId, Timestamp] = req.meta.get("versions", {})
        entries: List[ValueEntry] = []
        for obj in req.keys:
            if obj not in wanted:
                version = self.latest(obj)
            else:
                version = self.find_version(obj, wanted[obj])
                if version is None or not version.visible:
                    version = self.missing_version(client, req, obj, wanted[obj])
                    if version is None:
                        return  # deferred by the hook
            entries.append(self.read_entry(version))
        self.queue_send(ctx, client, ReadReply(txid=req.txid, values=tuple(entries)))

    def missing_version(
        self, client: ProcessId, req: ReadRequest, obj: ObjectId, ts: Timestamp
    ) -> Optional[Version]:
        """The version to serve instead, or ``None`` to answer later."""
        return self.latest(obj)  # pragma: no cover - dependency always local

    def read_entry(self, version: Version) -> ValueEntry:
        return version.entry(deps=version.deps)


class ExactReadClient(TxnClient):
    """The two-round COPS-GT read-only transaction.

    Hooks: :meth:`missing_versions` (the check between the rounds) and
    :meth:`note_read` (bookkeeping in :meth:`_complete`).
    """

    def begin_read(self, ctx: StepContext, active: ActiveTxn) -> None:
        groups = self.partition_objects(active.txn.read_set)
        active.state["phase"] = "round1"
        active.state["entries"] = {}
        active.awaiting = set(groups)
        active.round += 1
        for server, keys in groups.items():
            ctx.send(server, ReadRequest(txid=active.txn.txid, keys=keys))

    def handle_read_reply(
        self, ctx: StepContext, active: ActiveTxn, msg: Message, reply: ReadReply
    ) -> None:
        entries: Dict[ObjectId, ValueEntry] = active.state["entries"]
        for entry in reply.values:
            entries[entry.obj] = entry
        active.awaiting.discard(msg.src)
        if active.awaiting:
            return
        if active.state["phase"] == "round1":
            self._round2(ctx, active, self.missing_versions(entries))
        else:
            self._complete(ctx, active)

    def missing_versions(self, entries: Mapping[ObjectId, ValueEntry]) -> Dict[ObjectId, Timestamp]:
        """The causal-cut check: the version returned for each object must
        be at least as new as any dependency on that object declared by
        the other returned versions."""
        needed: Dict[ObjectId, Timestamp] = {}
        for entry in entries.values():
            for dep_obj, dep_ts in entry.meta.get("deps", ()):
                if dep_obj in entries and dep_ts > entries[dep_obj].ts:
                    if dep_obj not in needed or dep_ts > needed[dep_obj]:
                        needed[dep_obj] = dep_ts
        return needed

    def _round2(
        self, ctx: StepContext, active: ActiveTxn, needed: Mapping[ObjectId, Timestamp]
    ) -> None:
        if not needed:
            self._complete(ctx, active)
            return
        groups: Dict[ProcessId, List[ObjectId]] = {}
        for obj in needed:
            groups.setdefault(self.primary(obj), []).append(obj)
        active.state["phase"] = "round2"
        active.awaiting = set(groups)
        active.round += 1
        for server, keys in groups.items():
            ctx.send(
                server,
                ReadRequest(
                    txid=active.txn.txid,
                    keys=tuple(keys),
                    meta={"versions": {k: needed[k] for k in keys}},
                ),
            )

    def _complete(self, ctx: StepContext, active: ActiveTxn) -> None:
        entries: Dict[ObjectId, ValueEntry] = active.state["entries"]
        for obj, entry in entries.items():
            active.reads[obj] = entry.value
            if entry.ts != INITIAL_TS:
                self.note_read(obj, entry.ts)
        self.finish(ctx)

    def note_read(self, obj: ObjectId, ts: Timestamp) -> None:
        """Track the newest version read as a dependency."""
        if obj not in self.deps or ts > self.deps[obj]:
            self.deps[obj] = ts
