"""Value visibility (Definitions 2 and 6) as executable probes.

``x`` is visible in configuration ``C`` when *every* legal execution
from ``C`` containing just one fresh read-only transaction returns ``x``.
The probe runs the strongest single refuting adversary: it freezes every
message already in transit at ``C`` (arbitrary delay) and lets only the
prober, the servers, and messages sent after the probe started move.  If
even this maximally-starved execution returns the new value, the value
is declared visible; any stale return refutes visibility outright.

The probe runs on a snapshot and restores afterwards, implementing the
``RC(C, α)`` branching the proof needs.  Probe results are heuristic in
one direction only (declaring visible), and every use in the engine is
later self-validated by the spliced execution's actual read values.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Set

from repro.sim.events import deliverable_messages, steppable_pids
from repro.sim.executor import Configuration, Simulation
from repro.sim.messages import Message, ProcessId
from repro.sim.scheduler import RoundRobinScheduler, SchedulerStalled
from repro.txn.client import ClientBase
from repro.txn.types import ObjectId, Transaction, Value, read_only_txn


class FrozenScheduler(RoundRobinScheduler):
    """Round-robin adversary that never delivers a frozen message."""

    def __init__(self, frozen_msg_ids: Iterable[int]):
        super().__init__()
        self.frozen: Set[int] = set(frozen_msg_ids)

    def tick(self, sim, pids=None):
        thawed = [
            m for m in deliverable_messages(sim, pids) if m.msg_id not in self.frozen
        ]
        return self._alternate(sim, thawed, steppable_pids(sim, pids))


def probe_read(
    sim: Simulation,
    probe_client: ProcessId,
    objects: Sequence[ObjectId],
    servers: Sequence[ProcessId],
    max_events: int = 20_000,
    snap: Optional[Configuration] = None,
) -> Optional[Dict[ObjectId, Value]]:
    """Run a fresh ROT from the current configuration under the frozen
    adversary; return its reads, or ``None`` if it cannot complete.

    The configuration is restored afterwards.  A caller that already
    holds a snapshot of the *current* configuration may pass it as
    ``snap`` to skip the probe's own snapshot (the fast fork pattern: one
    snapshot, many branches).
    """
    if snap is None:
        snap = sim.snapshot()
    frozen = {m.msg_id for m in sim.network.pending()}
    client = sim.processes[probe_client]
    assert isinstance(client, ClientBase)
    before = len(client.completed)
    txn = read_only_txn(objects, txid=f"{probe_client}.probe{before}")
    sim.invoke(probe_client, txn)
    sched = FrozenScheduler(frozen)
    pids = (probe_client,) + tuple(servers)
    result: Optional[Dict[ObjectId, Value]] = None
    try:
        sched.run(
            sim,
            pids=pids,
            until=lambda s: len(client.completed) > before,
            max_events=max_events,
        )
        result = dict(client.completed[-1].reads)
    except SchedulerStalled:
        result = None
    finally:
        sim.restore(snap)
    return result


def values_visible(
    sim: Simulation,
    probe_client: ProcessId,
    expected: Dict[ObjectId, Value],
    servers: Sequence[ProcessId],
) -> bool:
    """Whether all of ``expected`` are returned by the frozen-adversary probe."""
    reads = probe_read(sim, probe_client, tuple(expected), servers)
    if reads is None:
        return False
    return all(reads.get(obj) == val for obj, val in expected.items())
