"""The event model: typed adversary choices and their independence relation.

An *adversary event* is one atomic choice the scheduler can make in a
configuration: deliver one in-transit message, or let one process take a
computation step.  Historically each consumer of the simulator re-derived
these choices from the network buffers by hand (`core/explore.py` had a
private ``_enabled_events``, the schedulers and chaos adversaries had
helpers of their own) and passed them around as ad-hoc
``("d", src, dst, seq)`` / ``("s", pid)`` tuples.  This module is the one
sanctioned enumeration: it owns the typed :class:`Event` objects, the
:func:`enabled_events` enumerator, and the :func:`independent` relation
that drives the exploration engine's partial-order reduction.

Independence
------------

Two events are *independent* when they commute — applying them in either
order yields the same configuration *up to the trace-canonical quotient*
(``Simulation.fingerprint(canonical=True)``: blind to global ``msg_id``
numbering and to intra-batch income order), and neither enables or
disables the other:

* ``Deliver(a→p) ⟂ Deliver(b→q)`` always (for distinct messages): the
  two moves remove from different positions of in-transit queues and
  append to income buffers.  Even two deliveries to the *same* process
  commute, because a step reads its inbox as a **set** —
  ``Network.drain_income`` presents every batch in canonical
  ``(src, link_seq)`` order, so the order the adversary filled the
  buffer in is unobservable.
* ``Step(p) ⟂ Deliver(a→q)`` iff ``p != q``: the step drains
  ``income[p]`` and mutates ``p``'s state; the delivery moves a message
  into ``income[q]``.  Even when ``a == p`` (the step's sends append to
  the tail of an in-transit queue the delivery removes from) the two
  operations commute element-wise and neither disables the other.  When
  ``p == q`` they are dependent: delivering before the step changes what
  the step's inbox contains.
* ``Step(p) ⟂ Step(q)`` iff ``p != q``: the two steps read and write
  disjoint process states and drain disjoint income buffers.  Their send
  sets land on disjoint links (a link is an ordered pair keyed by its
  source), and although the two orders mint different global ``msg_id``s
  for those sends, the canonical fingerprint is ``msg_id``-blind — the
  per-link ``link_seq`` each message gets is order-invariant.

The engine's partial-order reduction relies on exactly these guarantees:
``por=True`` keys its seen-set on the canonical fingerprint (so the two
sides of every commuting diamond merge) and prunes redundant sibling
orders with sleep sets.  The strict (``msg_id``-covering) fingerprint
used when ``por=False`` distinguishes states this relation declares
equal, which is why POR must pair the sleep sets with the canonical
quotient.  See ``docs/model.md`` ("Exploration engine") for the
soundness argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

from repro.sim.messages import Message, ProcessId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sim.executor import Simulation


@dataclass(frozen=True, slots=True)
class Event:
    """One atomic adversary choice.  Frozen, slotted, hashable, picklable."""

    def apply(self, sim: "Simulation") -> None:
        raise NotImplementedError

    @property
    def label(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class Deliver(Event):
    """Deliver the in-transit message ``(src, dst, link_seq)``."""

    src: ProcessId
    dst: ProcessId
    link_seq: int

    def apply(self, sim: "Simulation") -> None:
        sim.deliver(self.src, self.dst, self.link_seq)

    @property
    def label(self) -> str:
        return f"deliver {self.src}->{self.dst}#{self.link_seq}"


@dataclass(frozen=True, slots=True)
class Step(Event):
    """Let process ``pid`` take one computation step."""

    pid: ProcessId

    def apply(self, sim: "Simulation") -> None:
        sim.reuse_step(self.pid) or sim.step(self.pid)  # seen before, or run

    @property
    def label(self) -> str:
        return f"step {self.pid}"


def independent(a: Event, b: Event) -> bool:
    """Whether ``a`` and ``b`` commute (see the module docstring)."""
    if isinstance(a, Deliver):
        if isinstance(b, Deliver):
            # distinct messages; inbox batches are sets.  Identity first:
            # a search's events are interned (EventTable)
            return a is not b and a != b
        return a.dst != b.pid
    if isinstance(b, Deliver):
        return a.pid != b.dst
    return a.pid != b.pid  # two steps commute up to msg_id numbering


def deliverable_messages(
    sim: "Simulation", pids: Optional[Sequence[ProcessId]] = None
) -> List[Message]:
    """In-transit messages whose destination may act, oldest (msg_id) first.

    Messages to excluded processes are withheld (arbitrarily delayed),
    which is how solo executions are realized.
    """
    msgs = sim.network.pending()
    if pids is None:  # every process may act: nothing is withheld
        return msgs
    allowed = set(pids)
    return [m for m in msgs if m.dst in allowed]


def steppable_pids(
    sim: "Simulation", pids: Optional[Sequence[ProcessId]] = None
) -> List[ProcessId]:
    """Processes (among ``pids``) for which a step is currently useful.

    A step is useful when the process has undrained income or its
    ``wants_step`` hook reports deferred work.
    """
    processes = sim.processes
    income = sim.network.income
    return [
        pid
        for pid in (processes if pids is None else pids)
        if income[pid] or processes[pid].wants_step()
    ]


def step_stutters(sim: "Simulation", pid: ProcessId) -> bool:
    """Whether ``Step(pid)`` would leave the configuration as it is: the
    income buffer is empty and the process reports
    :meth:`~repro.sim.process.Process.stutters`."""
    return not sim.network.income[pid] and sim.processes[pid].stutters()


def any_enabled(
    sim: "Simulation", pids: Optional[Sequence[ProcessId]] = None
) -> bool:
    """``bool(enabled_events(sim, pids))``, without building the list."""
    processes = sim.processes
    income = sim.network.income
    for pid in processes if pids is None else pids:
        if income[pid] or processes[pid].wants_step():
            return True
    for (_, dst), q in sim.network.in_transit.items():
        if q and (pids is None or dst in pids):
            return True
    return False


def enabled_events(
    sim: "Simulation", pids: Optional[Sequence[ProcessId]] = None
) -> List[Event]:
    """Every enabled adversary event, in a deterministic order.

    Deliveries come first (ordered by ``msg_id``, i.e. send order), then
    steps in the order of ``pids``.  The order is part of the exploration
    baselines — the DFS visits children in exactly this order.
    """
    return EventTable(sim, sim.processes if pids is None else pids).enabled(sim)


class EventTable:
    """The enabled events of one search, each made once.

    :meth:`enabled` gives :func:`enabled_events`' list, but one object
    per event for the table's whole life, so the engine's sleep sets and
    trails compare them by identity first.  Whether every process may
    act (so :func:`deliverable_messages` withholds nothing and needs no
    filter) is decided once, here: the process set of a simulation is
    fixed at construction.
    """

    def __init__(self, sim: "Simulation", pids: Sequence[ProcessId]):
        self.pids = tuple(pids)
        #: the delivery filter: None when ``pids`` names every process
        self.acting = None if set(sim.processes) <= set(self.pids) else self.pids
        self._delivers: Dict[Tuple[ProcessId, ProcessId, int], Deliver] = {}
        self._steps = {pid: Step(pid) for pid in self.pids}

    def enabled(self, sim: "Simulation") -> List[Event]:
        delivers = self._delivers
        events: List[Event] = []
        for m in deliverable_messages(sim, self.acting):
            key = (m.src, m.dst, m.link_seq)
            e = delivers.get(key)
            if e is None:
                e = delivers[key] = Deliver(*key)
            events.append(e)
        steps = self._steps
        events.extend([steps[pid] for pid in steppable_pids(sim, self.pids)])
        return events
