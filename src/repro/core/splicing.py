"""The β → β_new (and ρ → ρ_new) subsequence machinery.

Given a recorded solo fragment β (the trace events of one induction
round), the splice computes the paper's

* ``β'_p`` — the shortest prefix of β containing every message ``c_w``
  sends to the *new* server ``p`` (the one that will answer with the
  written value);
* ``β_p``  — ``β'_p`` with every step of the other servers removed;
* ``β_s``  — the remaining suffix restricted to ``p``'s steps (and the
  deliveries addressed to ``p``);
* ``β_new = β_p · β_s``.

Replaying ``β_new`` from ``RC(C_{k-1}, σ_old)`` is the executable form
of the paper's legality argument: under the claim's premises (no
server→server message from the removed side, no implicit message via
``c_w``) every delivery surviving the filter addresses a message that
exists, and the configurations reached are indistinguishable to ``c_w``
and ``p`` from the unspliced ones.  A :class:`SpliceError` therefore
marks a broken premise, not an engine fault — it is surfaced as a
diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.sim.messages import ProcessId
from repro.sim.trace import DeliverEvent, StepEvent, TraceEvent


class SpliceError(RuntimeError):
    """A splice premise did not hold (see module docstring)."""


@dataclass
class RecordedFragment:
    """The trace events of one recorded fragment, replayable in order."""

    events: List[TraceEvent]
    # incremental send index: (src, dst) -> index just past src's last
    # send to dst, maintained lazily so that trying several splice roles
    # against one fragment scans its events once, not once per role
    _send_scan: int = field(default=0, init=False, repr=False, compare=False)
    _last_send: Dict[Tuple[ProcessId, ProcessId], int] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.events)

    def last_send_boundary(self, src: ProcessId, dst: ProcessId) -> int:
        """Index just past the last step where ``src`` sent to ``dst``.

        Returns 0 when the fragment contains no such send.
        """
        while self._send_scan < len(self.events):
            ev = self.events[self._send_scan]
            self._send_scan += 1
            if isinstance(ev, StepEvent):
                for m in ev.sent:
                    self._last_send[(ev.pid, m.dst)] = self._send_scan
        return self._last_send.get((src, dst), 0)


def _keep_filter(
    events: Sequence[TraceEvent], keep: Set[ProcessId]
) -> List[TraceEvent]:
    """Steps/invokes of kept processes; deliveries addressed to them."""
    return [
        e for e in events
        if (e.message.dst if isinstance(e, DeliverEvent) else e.pid) in keep
    ]


def splice_new(
    fragment: RecordedFragment,
    cw: ProcessId,
    new_server: ProcessId,
    servers: Sequence[ProcessId],
) -> List[TraceEvent]:
    """Compute ``β_new`` for the given roles (see module docstring)."""
    if new_server not in servers:
        raise ValueError(f"{new_server} is not a server")
    # β'_p: shortest prefix containing all cw → new_server sends
    split = fragment.last_send_boundary(cw, new_server)
    beta_p = _keep_filter(fragment.events[:split], {cw, new_server})
    beta_s = _keep_filter(fragment.events[split:], {new_server})
    return beta_p + beta_s
