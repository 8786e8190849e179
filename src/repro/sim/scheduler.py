"""Schedulers: the adversary's default strategies.

The order of events in an execution is controlled by an adversary.  For
ordinary workload runs we provide two fair adversaries (round-robin and
seeded-random); the proof engine drives the simulation with explicit
command scripts instead (see :mod:`repro.core`).

A *solo* execution (the paper: "only ``c`` and the servers take steps") is
obtained by restricting the scheduler to a subset of process ids;
messages destined to excluded processes stay in transit.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, List, Optional, Sequence

from repro.sim.events import deliverable_messages, steppable_pids
from repro.sim.executor import Simulation
from repro.sim.messages import Message, ProcessId


class SchedulerStalled(RuntimeError):
    """The scheduler ran out of its event budget before the goal was met."""


class Scheduler:
    """Base class: repeatedly choose and apply one event."""

    def tick(self, sim: Simulation, pids: Optional[Sequence[ProcessId]] = None) -> bool:
        """Apply one event among the allowed processes.

        Returns ``False`` when there is nothing to do (quiescence w.r.t.
        the restriction).
        """
        raise NotImplementedError

    def run(
        self,
        sim: Simulation,
        pids: Optional[Sequence[ProcessId]] = None,
        until: Optional[Callable[[Simulation], bool]] = None,
        max_events: int = 100_000,
    ) -> int:
        """Apply events until ``until(sim)`` holds or quiescence.

        Returns the number of events applied.  Raises
        :class:`SchedulerStalled` if the budget is exhausted first.
        """
        applied = 0
        while applied < max_events:
            if until is not None and until(sim):
                return applied
            if not self.tick(sim, pids):
                if until is None or until(sim):
                    return applied
                raise SchedulerStalled(
                    f"quiescent after {applied} events but goal not reached"
                )
            applied += 1
        if until is not None and until(sim):
            return applied
        raise SchedulerStalled(f"event budget {max_events} exhausted")


class RoundRobinScheduler(Scheduler):
    """Deterministic fair adversary.

    Alternates a delivery phase (deliver the oldest deliverable message)
    with a step phase (step the next process, cycling).  Fair: every sent
    message is eventually delivered and every process that wants steps
    gets them, so any execution it produces is legal.
    """

    def __init__(self) -> None:
        self._rr = 0
        self._phase = 0

    def tick(self, sim: Simulation, pids: Optional[Sequence[ProcessId]] = None) -> bool:
        return self._alternate(
            sim, deliverable_messages(sim, pids), steppable_pids(sim, pids)
        )

    def _alternate(
        self, sim: Simulation, deliverable: List[Message], steppable: List[ProcessId]
    ) -> bool:
        """One round-robin choice among the given enabled events."""
        if not deliverable and not steppable:
            return False
        # alternate, falling back to whichever is available
        do_deliver = deliverable and (self._phase % 2 == 0 or not steppable)
        self._phase += 1
        if do_deliver:
            sim.deliver_msg(deliverable[0])
            return True
        order = sorted(steppable)
        pid = order[self._rr % len(order)]
        self._rr += 1
        sim.step(pid)
        return True


class RandomScheduler(Scheduler):
    """Seeded random fair adversary: picks uniformly among enabled events."""

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)

    def tick(self, sim: Simulation, pids: Optional[Sequence[ProcessId]] = None) -> bool:
        deliverable = deliverable_messages(sim, pids)
        steppable = steppable_pids(sim, pids)
        n_deliver = len(deliverable)
        n_enabled = n_deliver + len(steppable)
        if not n_enabled:
            return False
        # an index over deliveries-then-steps: the same draw as
        # ``rng.choice`` over the concatenated list, without building it
        i = self.rng.randrange(n_enabled)
        if i < n_deliver:
            sim.deliver_msg(deliverable[i])
        else:
            sim.step(steppable[i - n_deliver])
        return True


def run_until_quiescent(
    sim: Simulation,
    pids: Optional[Sequence[ProcessId]] = None,
    max_events: int = 100_000,
) -> int:
    """Drive ``sim`` round-robin until (restricted) quiescence."""
    return RoundRobinScheduler().run(sim, pids=pids, max_events=max_events)
