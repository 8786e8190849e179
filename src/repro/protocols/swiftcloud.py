"""SwiftCloud/Eiger-PS-style — fast ROTs *and* write transactions, by
changing the rules.

Table 1 marks SwiftCloud and Eiger-PS with a dagger: they achieve
R=1/V=1/N=yes *and* multi-object write transactions — seemingly beating
the theorem — because they assume a different system model.  Section 4
explains the catch: "although they eventually complete all writes, the
values they write may be invisible to some clients for an indefinitely
long time.  Hence, read-only transactions may see very old values of
some objects, even the initial ones."

This module reproduces that design point inside our model:

* writes are client-coordinated 2PC into the live store (causally
  ordered by scalar timestamps);
* a read-only transaction is a single direct round: the client reads
  every object at its *epoch* — a stable frontier it learned earlier —
  and each server answers immediately with one value.  One round, one
  value, non-blocking: measured fast;
* the epoch only advances through information piggybacked on replies the
  client has already received (or an optional explicit sync round).  A
  *fresh* client's epoch is 0: it reads the initial values — forever.

Consequently the impossibility engine's verdict is ``STALLED``: value
visibility in the sense of Definition 2 (every fresh reader returns the
new value) is never reached, i.e. the minimal-progress premise
(Definition 3) is violated — exactly the loophole the paper says these
systems live in.  With ``sync_every=1`` the client syncs before every
read and the protocol collapses into a two-round (not fast) design,
closing the loophole and restoring the theorem's trichotomy.
"""

from __future__ import annotations

from repro.sim.messages import Message
from repro.sim.process import StepContext
from repro.protocols.base import ReadReply, ReadRequest
from repro.protocols.snapshot import ScalarSnapshotServer, SnapshotClient
from repro.protocols.twophase import TwoPCClientMixin, TwoPCMixin
from repro.txn.client import ActiveTxn


class SwiftCloudServer(TwoPCMixin, ScalarSnapshotServer):
    """Serves epoch reads immediately; piggybacks its stable frontier."""

    def snapshot_view(self) -> int:
        return self.gst()

    def can_serve(self, snap: int) -> bool:
        return True

    def handle_read(self, ctx: StepContext, msg: Message, req: ReadRequest) -> None:
        if req.meta.get("phase") == "snapshot":  # the optional sync round
            super().handle_read(ctx, msg, req)
            return
        epoch = req.meta["at"]
        entries = tuple(
            self.version_in_snapshot(obj, epoch).entry() for obj in req.keys
        )
        # piggyback the current frontier: this is the ONLY way a client's
        # epoch ever advances without an explicit sync — and it reaches
        # only clients that already talked to us, never fresh ones
        self.queue_send(
            ctx,
            msg.src,
            ReadReply(txid=req.txid, values=entries, meta={"frontier": self.gst()}),
        )


class SwiftCloudClient(TwoPCClientMixin, SnapshotClient):
    """Single-round epoch reads; epoch advances only by piggyback/sync."""

    push_dependencies = False
    use_write_cache = True

    def __init__(self, pid, servers, placement, sync_every: int = 0):
        super().__init__(pid, servers, placement)
        self.epoch = 0
        self.sync_every = sync_every
        self._rots = 0

    def begin_read(self, ctx: StepContext, active: ActiveTxn) -> None:
        self._rots += 1
        if self.sync_every and self._rots % self.sync_every == 0:
            # explicit freshness: ask a coordinator for the frontier first
            # (costs the second round the theorem says is unavoidable)
            super().begin_read(ctx, active)
            return
        groups = self.partition_objects(active.txn.read_set)
        active.state["phase"] = "read"
        active.awaiting = set(groups)
        active.round += 1
        for server, keys in groups.items():
            ctx.send(
                server,
                ReadRequest(txid=active.txn.txid, keys=keys, meta={"at": self.epoch}),
            )

    def _choose_snapshot(self, server_snap: int) -> int:
        snap = max(int(server_snap), self.epoch)
        self.epoch = snap
        self.last_snap = max(self.last_snap, snap)
        return snap

    def handle_message(self, ctx: StepContext, msg: Message) -> None:
        payload = msg.payload
        if isinstance(payload, ReadReply) and "frontier" in payload.meta:
            self.epoch = max(self.epoch, int(payload.meta["frontier"]))
        super().handle_message(ctx, msg)
