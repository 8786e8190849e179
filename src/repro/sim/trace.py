"""Execution traces.

The trace records every event of an execution — computation steps (with
the messages received and sent), delivery events, and transaction
invocations — in order.  The metrics in :mod:`repro.analysis.metrics`
(and through them the fast-ROT measurement in
:mod:`repro.core.properties`), the induction's necessary-message detector
and the space-time renderer in :mod:`repro.analysis.spacetime` read its
``events`` list directly.

The trace is also the replay log: every recorded event can
:meth:`~TraceEvent.apply` itself again, so a recorded fragment — filtered
by the proof engine's splices (:mod:`repro.core.splicing`) or not — is
re-executed from a snapshot with :meth:`Simulation.replay`.  A replayed
delivery addresses its message structurally by ``(src, dst, link_seq)``,
never by the global ``msg_id``, which a filtered replay renumbers.

Traces are *observational*: they are not part of the configuration, so
snapshotting and restoring a :class:`~repro.sim.executor.Simulation` does
not rewind the trace (the events really happened, on some branch).  Use
:meth:`Trace.mark` and slice ``trace.events[mark:]`` to cut out the events
of one branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List, Tuple

from repro.sim.messages import Message, ProcessId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sim.executor import Simulation


@dataclass(frozen=True, slots=True)
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


class Trace:
    """Append-only event log for one simulation object."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def append(self, event: TraceEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def mark(self) -> int:
        """A cursor: ``events[mark:]`` are the events applied since."""
        return len(self.events)
