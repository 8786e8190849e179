"""Hostile-but-fair schedulers for chaos testing.

The model's adversary may delay any message arbitrarily (never losing
it).  Beyond the round-robin and seeded-random schedulers these
adversaries exercise the delay freedom systematically:

* :class:`LIFOScheduler` — always delivers the *newest* in-transit
  message first: maximal reordering on every link;
* :class:`StarveLinkScheduler` — withholds one chosen link's messages as
  long as anything else can happen (the pattern behind the paper's
  constructions: one server's view frozen while the world moves);
* :class:`BurstScheduler` — alternates long step-only phases with
  delivery storms, so processes see big message batches at once.

All of them are fair in the limit (a run to quiescence delivers
everything), so every execution they produce is legal — protocols must
stay consistent under all of them, which the chaos tests verify.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.sim.events import deliverable_messages, steppable_pids
from repro.sim.executor import Simulation
from repro.sim.messages import Message, ProcessId
from repro.sim.scheduler import RoundRobinScheduler, Scheduler


class LIFOScheduler(RoundRobinScheduler):
    """Delivers newest-first; steps round-robin between deliveries."""

    def tick(self, sim: Simulation, pids: Optional[Sequence[ProcessId]] = None) -> bool:
        # the round-robin alternation with the newest message as the
        # only delivery candidate
        return self._alternate(
            sim, deliverable_messages(sim, pids)[-1:], steppable_pids(sim, pids)
        )


class StarveLinkScheduler(Scheduler):
    """Withholds one directed link's messages for long stretches.

    Messages on the starved link are delayed while anything else can
    move, but at most ``patience`` ticks at a time — processes with
    deferred work keep generating steps forever (retries, gossip), so an
    unconditional starvation would be unfair (the message would *never*
    be delivered, which the model forbids).  Bounded starvation keeps
    the run legal while still producing extreme reorderings.
    """

    def __init__(self, src: ProcessId, dst: ProcessId, patience: int = 25):
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.src = src
        self.dst = dst
        self.patience = patience
        self._rr = 0
        self._phase = 0
        self._starving_since = 0

    def tick(self, sim: Simulation, pids: Optional[Sequence[ProcessId]] = None) -> bool:
        deliverable = deliverable_messages(sim, pids)
        preferred = [
            m for m in deliverable if not (m.src == self.src and m.dst == self.dst)
        ]
        starved = [m for m in deliverable if m not in preferred]
        steppable = steppable_pids(sim, pids)
        if not deliverable and not steppable:
            return False
        self._phase += 1
        if starved:
            self._starving_since += 1
            if self._starving_since >= self.patience or not (preferred or steppable):
                self._starving_since = 0
                sim.deliver_msg(starved[0])
                return True
        do_deliver = preferred and (self._phase % 2 == 0 or not steppable)
        if do_deliver:
            sim.deliver_msg(preferred[0])
            return True
        if steppable:
            order = sorted(steppable)
            sim.step(order[self._rr % len(order)])
            self._rr += 1
            return True
        sim.deliver_msg(deliverable[0])
        return True


class BurstScheduler(Scheduler):
    """Step-only phases punctuated by delivery storms."""

    def __init__(self, burst_every: int = 8, seed: int = 0):
        if burst_every < 1:
            raise ValueError("burst_every must be >= 1")
        self.burst_every = burst_every
        self.rng = random.Random(seed)
        self._count = 0

    def tick(self, sim: Simulation, pids: Optional[Sequence[ProcessId]] = None) -> bool:
        deliverable = deliverable_messages(sim, pids)
        steppable = steppable_pids(sim, pids)
        if not deliverable and not steppable:
            return False
        self._count += 1
        in_storm = (self._count // self.burst_every) % 2 == 1
        if in_storm and deliverable:
            sim.deliver_msg(self.rng.choice(deliverable))
            return True
        if steppable:
            sim.step(self.rng.choice(sorted(steppable)))
            return True
        sim.deliver_msg(deliverable[0])
        return True


ADVERSARIES = {
    "lifo": LIFOScheduler,
    "burst": BurstScheduler,
}


def all_adversaries(servers: Sequence[ProcessId]) -> List[Tuple[str, Scheduler]]:
    """One instance of every adversary, including per-link starvation."""
    out: List[Tuple[str, Scheduler]] = [
        ("lifo", LIFOScheduler()),
        ("burst", BurstScheduler(seed=3)),
    ]
    for i, src in enumerate(servers):
        for dst in servers[i + 1 :]:
            out.append((f"starve:{src}->{dst}", StarveLinkScheduler(src, dst)))
    return out
