"""Space-time diagrams: one column per process, one row per event.

The textual cousin of the classic message-sequence chart.  Used by the
Figure 2 renderer and the ``python -m repro trace`` command; handy
whenever a protocol does something surprising and you want to *see* the
execution.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.sim.trace import DeliverEvent, InvokeEvent, StepEvent, TraceEvent


def lane_diagram(
    events: Iterable[TraceEvent], pids: Sequence[str], width: int = 14
) -> List[str]:
    """Render events as lanes; returns the lines."""
    lines = []
    header = " ".join(p.center(width) for p in pids)
    lines.append(header)
    lines.append("-" * len(header))
    for ev in events:
        cells = {p: "" for p in pids}
        if isinstance(ev, StepEvent):
            rx = ",".join(f"m{m.msg_id}" for m in ev.received)
            tx = ",".join(f"m{m.msg_id}>{m.dst}" for m in ev.sent)
            label = "step"
            if rx:
                label += f" rx[{rx}]"
            if tx:
                label += f" tx[{tx}]"
            if ev.pid in cells:
                cells[ev.pid] = label
        elif isinstance(ev, DeliverEvent):
            m = ev.message
            if m.dst in cells:
                cells[m.dst] = f"<~ m{m.msg_id} from {m.src}"
        elif isinstance(ev, InvokeEvent):
            if ev.pid in cells:
                cells[ev.pid] = f"invoke {getattr(ev.txn, 'txid', ev.txn)}"
        row = " ".join(
            cells.get(p, "").ljust(width)[: max(width, len(cells.get(p, "")))]
            for p in pids
        )
        lines.append(row.rstrip())
    return lines


def render_spacetime(
    events: Sequence[TraceEvent],
    pids: Optional[Sequence[str]] = None,
    width: int = 14,
) -> str:
    """Render recorded events as a space-time diagram string."""
    if pids is None:
        seen: List[str] = []
        for ev in events:
            cands = []
            if isinstance(ev, (StepEvent, InvokeEvent)):
                cands.append(ev.pid)
            if isinstance(ev, DeliverEvent):
                cands.extend([ev.message.src, ev.message.dst])
            for c in cands:
                if c not in seen:
                    seen.append(c)
        pids = seen
    return "\n".join(lane_diagram(events, pids, width=width))
