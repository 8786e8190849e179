"""Execution traces.

The trace records every event of an execution — computation steps (with
the messages received and sent), delivery events, and transaction
invocations — in order.  The metrics in :mod:`repro.analysis.metrics` and
the property monitors in :mod:`repro.core.properties` are pure functions
of the trace, and the figure renderers in :mod:`repro.analysis.figures`
pretty-print slices of it.

Traces are *observational*: they are not part of the configuration, so
snapshotting and restoring a :class:`~repro.sim.executor.Simulation` does
not rewind the trace (the events really happened, on some branch).  Use
:meth:`Trace.mark` / :meth:`Trace.since` to slice out the events of one
branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from repro.sim.messages import Message, ProcessId


@dataclass(frozen=True, slots=True)
class TraceEvent:
    index: int


@dataclass(frozen=True, slots=True)
class StepEvent(TraceEvent):
    """A computation step: ``pid`` consumed ``received`` and sent ``sent``."""

    pid: ProcessId
    received: Tuple[Message, ...]
    sent: Tuple[Message, ...]

    def __repr__(self) -> str:
        rx = ",".join(f"m{m.msg_id}" for m in self.received) or "-"
        tx = ",".join(f"m{m.msg_id}" for m in self.sent) or "-"
        return f"[{self.index}] step {self.pid} rx:{rx} tx:{tx}"


@dataclass(frozen=True, slots=True)
class DeliverEvent(TraceEvent):
    """A delivery event moved ``message`` into the destination's buffer."""

    message: Message

    def __repr__(self) -> str:
        m = self.message
        return f"[{self.index}] deliver m{m.msg_id} {m.src}->{m.dst}"


@dataclass(frozen=True, slots=True)
class InvokeEvent(TraceEvent):
    """The application handed a transaction to a client process."""

    pid: ProcessId
    txn: Any

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
        """Return a cursor for :meth:`since`."""
        return len(self.events)

    def since(self, mark: int) -> List[TraceEvent]:
        return self.events[mark:]

    # -- queries used by monitors and the proof engine --------------------

    def steps_of(self, pid: ProcessId, start: int = 0) -> List[StepEvent]:
        return [
            e for e in self.events[start:] if isinstance(e, StepEvent) and e.pid == pid
        ]

    def messages_sent(
        self,
        src: Optional[ProcessId] = None,
        dst: Optional[ProcessId] = None,
        start: int = 0,
    ) -> List[Message]:
        out: List[Message] = []
        for e in self.events[start:]:
            if isinstance(e, StepEvent) and (src is None or e.pid == src):
                for m in e.sent:
                    if dst is None or m.dst == dst:
                        out.append(m)
        return out

    def receive_step(self, msg: Message, start: int = 0) -> Optional[StepEvent]:
        """The step event in which ``msg`` was consumed, if any."""
        for e in self.events[start:]:
            if isinstance(e, StepEvent) and any(
                m.msg_id == msg.msg_id for m in e.received
            ):
                return e
        return None

    def render(self, start: int = 0, end: Optional[int] = None) -> str:
        return "\n".join(repr(e) for e in self.events[start:end])
