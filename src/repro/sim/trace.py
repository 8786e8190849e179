"""Execution traces.

A trace is the sequence of events of an execution — computation steps
(with the messages received and sent), delivery events, and transaction
invocations — in order.  The simulator keeps none of them on its own: a
caller that wants the events of a run opens a window,
``with sim.recording() as events:``, and the list ``events`` then holds
every event applied while the window is open.  The metrics in
:mod:`repro.analysis.metrics` (the fast-ROT measurement among them), the
induction's necessary-message detector and the space-time renderer in
:mod:`repro.analysis.spacetime` read such a list.

A recorded list is also a replay log: every event can
:meth:`~TraceEvent.apply` itself again, so a recorded fragment — filtered
by the proof engine's splices (:mod:`repro.core.splicing`) or not — is
re-executed from a snapshot with :meth:`Simulation.replay`.  A replayed
delivery addresses its message structurally by ``(src, dst, link_seq)``,
never by the global ``msg_id``, which a filtered replay renumbers.

A window is not part of the configuration: restoring a snapshot or a
mark does not rewind it (the events really happened, on some branch), so
a window that should hold one branch is opened after the restore that
starts it.  Each event's ``index`` counts every event the simulation
ever applied (:attr:`Simulation.events_applied`), windows or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Tuple

from repro.sim.messages import Message, ProcessId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sim.executor import Simulation


@dataclass(frozen=True, slots=True, weakref_slot=True)
class TraceEvent:
    index: int

    def apply(self, sim: "Simulation") -> None:
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class StepEvent(TraceEvent):
    """A computation step: ``pid`` consumed ``received`` and sent ``sent``."""

    pid: ProcessId
    received: Tuple[Message, ...]
    sent: Tuple[Message, ...]

    def apply(self, sim: "Simulation") -> None:
        sim.step(self.pid)

    def __repr__(self) -> str:
        rx = ",".join(f"m{m.msg_id}" for m in self.received) or "-"
        tx = ",".join(f"m{m.msg_id}" for m in self.sent) or "-"
        return f"[{self.index}] step {self.pid} rx:{rx} tx:{tx}"


@dataclass(frozen=True, slots=True)
class DeliverEvent(TraceEvent):
    """A delivery event moved ``message`` into the destination's buffer."""

    message: Message

    def apply(self, sim: "Simulation") -> None:
        sim.deliver(self.message.src, self.message.dst, self.message.link_seq)

    def __repr__(self) -> str:
        m = self.message
        return f"[{self.index}] deliver m{m.msg_id} {m.src}->{m.dst}"


@dataclass(frozen=True, slots=True)
class InvokeEvent(TraceEvent):
    """The application handed a transaction to a client process."""

    pid: ProcessId
    txn: Any

    def apply(self, sim: "Simulation") -> None:
        sim.invoke(self.pid, self.txn)

    def __repr__(self) -> str:
        return f"[{self.index}] invoke {self.pid} {self.txn}"
