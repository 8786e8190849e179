"""Transaction-mix generation and workload driving.

A :class:`WorkloadSpec` describes the mix (read ratio, transaction
sizes, skew); :func:`generate_workload` expands it into per-client
transaction sequences with globally unique written values (the paper's
simplifying assumption, and a checker precondition);
:func:`run_workload` drives a system through the workload and returns
its history.

:func:`run_workload` hands a protocol without multi-object write
transactions single-object writes (and one without read-write
transactions no read-write ones): every system executes the same logical
update load, shaped to what it supports, which is exactly the
functionality trade-off the paper is about.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.protocols.base import System
from repro.sim.scheduler import RandomScheduler, Scheduler
from repro.txn.history import History
from repro.txn.types import ObjectId, Transaction, read_only_txn, rw_txn, write_only_txn
from repro.workloads.zipf import ZipfGenerator


@dataclass(frozen=True)
class WorkloadSpec:
    """A transaction mix."""

    n_txns: int = 100
    read_ratio: float = 0.9  # fraction of read-only transactions
    rw_ratio: float = 0.0  # fraction of read-write transactions
    read_size: Tuple[int, int] = (1, 3)  # min/max objects per ROT
    write_size: Tuple[int, int] = (1, 2)  # min/max objects per write txn
    zipf_theta: float = 0.99
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.read_ratio <= 1.0:
            raise ValueError("read_ratio must be in [0, 1]")
        if not 0.0 <= self.rw_ratio <= 1.0 - self.read_ratio:
            raise ValueError("rw_ratio must fit in the remaining fraction")


READ_HEAVY = WorkloadSpec(read_ratio=0.95)
BALANCED = WorkloadSpec(read_ratio=0.5)
WRITE_HEAVY = WorkloadSpec(read_ratio=0.1)

#: the Table-1 reference mix, run on 4 objects / 2 servers: the paper
#: ledger's ``table1`` section, ``python -m repro table1`` and
#: ``examples/protocol_comparison.py`` all measure this one workload
TABLE1_SPEC = WorkloadSpec(n_txns=120, read_ratio=0.7, read_size=(2, 3), seed=11)

#: the Theorem 1 driver's fast-ROT probe, on the same deployment: enough
#: concurrent writes to exercise second rounds, blocking waits and
#: readers checks
DEFAULT_FAST_SPEC = WorkloadSpec(
    n_txns=60, read_ratio=0.6, read_size=(2, 3), write_size=(1, 2), seed=7
)


class WorkloadGenerator:
    """Expands a spec into concrete transactions."""

    def __init__(
        self,
        spec: WorkloadSpec,
        objects: Sequence[ObjectId],
        clients: Sequence[str],
        supports_wtx: bool = True,
        supports_rw: bool = True,
    ):
        self.spec = spec
        self.objects = tuple(objects)
        self.clients = tuple(clients)
        self.supports_wtx = supports_wtx
        self.supports_rw = supports_rw
        self.rng = random.Random(spec.seed)
        self.zipf = ZipfGenerator(len(self.objects), spec.zipf_theta, seed=spec.seed)
        self._value_counter = 0
        self._txn_counter = 0

    def _fresh_value(self, client: str) -> str:
        self._value_counter += 1
        return f"v{self._value_counter}@{client}"

    def _fresh_txid(self, client: str) -> str:
        # deterministic per generator (the global txid counter would leak
        # state between runs and break seeded reproducibility)
        self._txn_counter += 1
        return f"t{self._txn_counter}.{client}"

    def _pick_objects(self, lo: int, hi: int) -> Tuple[ObjectId, ...]:
        k = min(self.rng.randint(lo, hi), len(self.objects))
        return tuple(self.objects[i] for i in self.zipf.sample_distinct(k))

    def next_txn(self, client: str) -> Transaction:
        spec = self.spec
        roll = self.rng.random()
        txid = self._fresh_txid(client)
        if roll < spec.read_ratio:
            return read_only_txn(self._pick_objects(*spec.read_size), txid=txid)
        wlo, whi = spec.write_size
        if not self.supports_wtx:
            wlo, whi = 1, 1
        writes = {
            obj: self._fresh_value(client) for obj in self._pick_objects(wlo, whi)
        }
        if self.supports_rw and roll < spec.read_ratio + spec.rw_ratio:
            reads = tuple(
                o for o in self._pick_objects(*spec.read_size) if o not in writes
            )
            if reads:
                return rw_txn(reads, writes, txid=txid)
        return write_only_txn(writes, txid=txid)

    def schedule(self) -> List[Tuple[str, Transaction]]:
        """The full workload: (client, txn) pairs in submission order."""
        out: List[Tuple[str, Transaction]] = []
        for _ in range(self.spec.n_txns):
            client = self.rng.choice(self.clients)
            out.append((client, self.next_txn(client)))
        return out


def generate_workload(
    spec: WorkloadSpec,
    objects: Sequence[ObjectId],
    clients: Sequence[str],
    supports_wtx: bool = True,
    supports_rw: bool = True,
) -> List[Tuple[str, Transaction]]:
    return WorkloadGenerator(
        spec, objects, clients, supports_wtx=supports_wtx, supports_rw=supports_rw
    ).schedule()


class WorkloadStalled(RuntimeError):
    """The workload did not complete within the event budget."""


def run_workload(
    system: System,
    spec: WorkloadSpec,
    scheduler: Optional[Scheduler] = None,
    max_events: int = 2_000_000,
) -> History:
    """Drive ``system`` through a generated workload; return its history.

    Clients run **concurrently**: each client is handed its next
    transaction the moment the previous one completes, while the (by
    default seeded-random, i.e. adversarially reordering) scheduler
    interleaves everyone's messages.  The overlap is what exercises the
    interesting paths — second read rounds, blocking waits, readers
    checks, lock queues.
    """
    info = system.info
    gen = WorkloadGenerator(
        spec,
        system.config.objects,
        system.clients,
        supports_wtx=info.supports_wtx,
        supports_rw=info.supports_rw,
    )
    queues: Dict[str, Deque[Transaction]] = {c: deque() for c in system.clients}
    for client, txn in gen.schedule():
        queues[client].append(txn)

    sched = scheduler if scheduler is not None else RandomScheduler(spec.seed)
    sim = system.sim
    processes = sim.processes
    # the clients that still have transactions to be handed, in client
    # order: the per-tick bookkeeping looks at these and at nobody else
    backlog = [(cpid, queue) for cpid, queue in queues.items() if queue]

    def drained() -> bool:
        return not backlog and all(
            processes[c].current is None and not processes[c].pending
            for c in system.clients
        )

    events = 0
    while True:
        emptied = False
        for cpid, queue in backlog:
            client = processes[cpid]
            if client.current is None and not client.pending:
                sim.invoke(cpid, queue.popleft())
                if not queue:
                    emptied = True
        if emptied:
            backlog[:] = [entry for entry in backlog if entry[1]]
        if events == max_events and not (drained() and sim.quiescent()):
            raise WorkloadStalled(f"{info.name}: budget {max_events} exhausted")
        # a tick that reports no progress ran nothing, so ``drained`` is
        # only ever needed there
        if not sched.tick(sim):
            if drained():
                break
            raise WorkloadStalled(
                f"{info.name}: quiescent with unfinished transactions"
            )
        events += 1
    return system.history()
