"""Stabilization (GST) machinery shared by the snapshot-based protocols.

GentleRain, Orbe, Cure, Contrarian and Wren all rest on the same idea:
servers gossip clock information and compute a *stable frontier* — a
timestamp (scalar or vector) below which no new version can ever appear.
They differ in what the frontier is made of and in whether reads are
served *at* a pre-stabilized snapshot (nonblocking: Contrarian, Wren) or
*wait* for the frontier to catch up with a client-chosen snapshot
(blocking: GentleRain, Orbe, Cure).

The gossip here is honest about the published algorithms: a server's view
of its peers' clocks lags reality, so the frontier is conservative, and
the blocking protocols really do defer replies — the source of the
"N = no" rows of Table 1.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.sim.messages import Message, ProcessId
from repro.sim.process import StepContext
from repro.protocols.base import ServerBase, ServerMsg
from repro.txn.types import ObjectId


class StabilizingServer(ServerBase):
    """Server with a Lamport clock per peer view and GST gossip.

    Gossip is demand-driven: a server broadcasts its clock when its state
    changed since the last broadcast or when it has deferred work, so the
    network quiesces once nothing is blocked.
    """

    def __init__(
        self,
        pid: ProcessId,
        objects: Sequence[ObjectId],
        peers: Sequence[ProcessId],
        placement: Mapping[ObjectId, Tuple[ProcessId, ...]],
    ):
        super().__init__(pid, objects, peers, placement)
        self.clock: int = 0
        #: latest clock value heard from each server (self included, live)
        self.known_clocks: Dict[ProcessId, int] = {p: 0 for p in self.peers}
        self._dirty = True
        self._respond = False
        self._last_broadcast = -1

    # -- clocks ---------------------------------------------------------------

    def observe_clock(self, t: int) -> int:
        self.clock = max(self.clock, t) + 1
        return self.clock

    def gst(self) -> int:
        """Global stable frontier: min over the cluster of gossiped values.

        Servers gossip :meth:`local_stable`, so this is the *global stable
        time* — no version anywhere will ever appear with a timestamp at
        or below it.
        """
        if not self.known_clocks:
            return self.local_stable()
        return min(self.local_stable(), min(self.known_clocks.values()))

    def stable_vector(self) -> Dict[ProcessId, int]:
        vec = dict(self.known_clocks)
        vec[self.pid] = self.local_stable()
        return vec

    def local_stable(self) -> int:
        """The highest timestamp this server guarantees is final locally.

        Subclasses with prepared-but-uncommitted transactions override
        this to hold the frontier below pending commit timestamps.
        """
        return self.clock

    # -- gossip -----------------------------------------------------------------

    def has_deferred_work(self) -> bool:
        return False

    def handle_server(self, ctx: StepContext, msg: Message, sm: ServerMsg) -> None:
        if sm.kind == "clock":
            t = sm.data["clock"]
            prev = self.known_clocks.get(msg.src, 0)
            if t > prev:
                self.known_clocks[msg.src] = t
            self.observe_clock(t)
            if sm.data.get("solicit"):
                # a peer announced fresh state (or is blocked) and wants
                # the cluster's frontier view to advance: broadcast our
                # own stable once, as a *non-soliciting* message, so the
                # exchange terminates (damping).
                self._respond = True
        else:
            raise NotImplementedError(f"{self.pid}: server message {sm.kind}")

    def on_step(self, ctx: StepContext, inbox: Sequence[Message]) -> None:
        # the clock tracks simulated physical time (the global event
        # counter), as GentleRain-style stabilization assumes
        self.clock = max(self.clock, ctx.step_index)
        super().on_step(ctx, inbox)

    def wants_step(self) -> bool:
        return (
            super().wants_step()  # pending outbox
            or self.has_deferred_work()
            or (self._dirty and self._last_broadcast < self.local_stable())
            or self._respond
        )

    def on_tick(self, ctx: StepContext) -> None:
        self.retry_deferred(ctx)
        stable = self.local_stable()
        if self.has_deferred_work() or (self._dirty and stable > self._last_broadcast):
            # fresh local data, or blocked work chasing the frontier:
            # solicit one response round from every peer
            sent_all = True
            for peer in self.peers:
                if not ctx.sent_to(peer):
                    ctx.send(
                        peer,
                        ServerMsg(
                            kind="clock", data={"clock": stable, "solicit": True}
                        ),
                    )
                else:
                    sent_all = False
            if sent_all:
                self._last_broadcast = stable
                self._dirty = False
                self._respond = False
        elif self._respond and stable > self._last_broadcast:
            for peer in self.peers:
                if not ctx.sent_to(peer):
                    ctx.send(peer, ServerMsg(kind="clock", data={"clock": stable}))
            self._last_broadcast = stable
            self._respond = False
        else:
            self._respond = False

    def retry_deferred(self, ctx: StepContext) -> None:
        """Re-examine deferred replies; overridden by blocking protocols."""
        return None
