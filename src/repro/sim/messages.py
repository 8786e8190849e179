"""Messages exchanged over links.

A message is immutable once sent (links "do not modify messages").  Every
message carries two identifiers:

``msg_id``
    A globally unique, execution-wide sequence number.  It is *not* stable
    under splicing (removing steps renumbers later messages), so the proof
    machinery never uses it for addressing.

``link_seq``
    The per-link sequence number: the n-th message ever sent on the
    directed link ``(src, dst)`` has ``link_seq == n``.  Because each link
    has a single sender, filtering the steps of some *other* process out of
    an execution never perturbs the ``link_seq`` numbering of the remaining
    sends, which makes ``(src, dst, link_seq)`` a structurally stable
    address for replay (see :meth:`repro.sim.executor.Simulation.replay`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Tuple

ProcessId = str


class Payload:
    """Base class for typed message payloads.

    Protocols subclass this; the property monitors in
    :mod:`repro.analysis.metrics` introspect payload types (for instance,
    read replies must expose the written values they carry) so that the
    one-value property is judged honestly rather than declared.
    """

    #: names of attributes that carry *written values* (checked by the
    #: one-value monitor).  Metadata such as timestamps is exempt, per the
    #: paper's footnote 3.
    value_fields: Tuple[str, ...] = ()

    def carried_values(self):
        """Return the list of (object, value) pairs this payload carries."""
        out = []
        for name in self.value_fields:
            item = getattr(self, name)
            if item is None:
                continue
            if isinstance(item, (list, tuple)):
                out.extend(item)
            else:
                out.append(item)
        return out


@dataclass(frozen=True, slots=True)
class Message:
    """A message in transit or delivered on a directed link."""

    msg_id: int
    src: ProcessId
    dst: ProcessId
    link_seq: int
    payload: Any = field(compare=False)

    def __repr__(self) -> str:  # compact, used in witness rendering
        return (
            f"m{self.msg_id}[{self.src}->{self.dst}#{self.link_seq} "
            f"{type(self.payload).__name__}]"
        )
