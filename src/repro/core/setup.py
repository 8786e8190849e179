"""Building the theorem's initial configurations (Figure 1).

From the initial configuration ``Q_in``:

1. each initializing client ``c_in_i`` executes the write-only
   transaction ``T_in_i = (w(X_i) x_in_i)``, and the system is driven to
   quiescence — reaching ``Q_0``, where all initial values are visible;
2. the writing client ``c_w`` executes the fast read-only transaction
   ``T_in_r`` reading every object — because the initial values are
   visible it returns them, establishing the causal edge
   ``T_in_i <c T_in_r <c T_w`` the proof leans on;
3. the system is driven until no message is in transit — ``C_0``.

The returned :class:`TheoremSystem` also carries the probe-client pool
used by the visibility probes and the spliced constructions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.visibility import values_visible
from repro.protocols.base import System, build_system
from repro.sim.executor import Configuration
from repro.sim.scheduler import RoundRobinScheduler
from repro.txn.client import UnsupportedTransaction
from repro.txn.types import ObjectId, Transaction, Value, read_only_txn, write_only_txn


class SetupError(RuntimeError):
    """The protocol could not even establish the initial configuration."""


@dataclass
class TheoremSystem:
    """A system instrumented for the impossibility engine."""

    system: System
    cw: str
    init_clients: Tuple[str, ...]
    probes: Tuple[str, ...]
    init_values: Dict[ObjectId, Value]
    new_values: Dict[ObjectId, Value]
    c0: Optional[Configuration] = None

    @property
    def sim(self):
        return self.system.sim

    @property
    def servers(self) -> Tuple[str, ...]:
        return self.system.servers

    @property
    def service_pids(self) -> Tuple[str, ...]:
        """Servers plus auxiliary processes (probe schedulers need both)."""
        return self.system.service_pids

    @property
    def objects(self) -> Tuple[ObjectId, ...]:
        return self.system.config.objects

    def tw(self) -> Transaction:
        """The write-only multi-object transaction of the proof."""
        return write_only_txn(self.new_values, txid="Tw")

    def race_script(self) -> List[Tuple[str, Transaction]]:
        """The write/read race: ``c_w`` writes every object — as ``T_w``,
        or one single-object write ``Tw<i>`` per object where the
        protocol has no multi-object write transactions — and the first
        probe reads every object as ``T_r``."""
        if self.system.info.supports_wtx:
            script = [(self.cw, self.tw())]
        else:
            script = [
                (self.cw, write_only_txn({obj: self.new_values[obj]}, txid=f"Tw{i}"))
                for i, obj in enumerate(self.objects)
            ]
        script.append((self.probes[0], read_only_txn(self.objects, txid="Tr")))
        return script

    def primary(self, obj: ObjectId) -> str:
        return self.system.config.placement[obj][0]


def prepare_theorem_system(
    protocol: str,
    objects: Sequence[ObjectId] = ("X0", "X1"),
    n_servers: int = 2,
    n_probes: int = 4,
    placement: Optional[Mapping[ObjectId, Tuple[str, ...]]] = None,
    replication: int = 1,
    max_events: int = 100_000,
    **params: Any,
) -> TheoremSystem:
    """Build a system and drive it to the configuration ``C_0``."""
    objects = tuple(objects)
    init_clients = tuple(f"cin{i}" for i in range(len(objects)))
    probes = tuple(f"cr{i}" for i in range(n_probes))
    clients = init_clients + ("cw",) + probes
    system = build_system(
        protocol,
        objects=objects,
        n_servers=n_servers,
        clients=clients,
        placement=placement,
        replication=replication,
        **params,
    )
    init_values = {obj: f"{obj}:init" for obj in objects}
    new_values = {obj: f"{obj}:new" for obj in objects}

    tsys = TheoremSystem(
        system=system,
        cw="cw",
        init_clients=init_clients,
        probes=probes,
        init_values=init_values,
        new_values=new_values,
    )

    sched = RoundRobinScheduler()
    # T_in_i: single-object initial writes (every protocol supports these)
    for i, obj in enumerate(objects):
        txn = write_only_txn({obj: init_values[obj]}, txid=f"Tin{i}")
        system.execute(init_clients[i], txn, scheduler=sched, max_events=max_events)
    system.settle(max_events=max_events)

    if not values_visible(system.sim, probes[-1], init_values, system.service_pids):
        raise SetupError(
            f"{protocol}: initial values not visible after initialization "
            "(minimal progress violated during setup)"
        )

    # T_in_r by cw: reads all objects, must return the initial values
    rec = system.execute(
        "cw", read_only_txn(objects, txid="Tinr"), scheduler=sched, max_events=max_events
    )
    for obj in objects:
        if rec.reads[obj] != init_values[obj]:
            raise SetupError(
                f"{protocol}: T_in_r returned {rec.reads[obj]!r} for {obj}, "
                f"expected the visible initial value {init_values[obj]!r}"
            )
    system.settle(max_events=max_events)
    if not system.sim.network.idle():
        raise SetupError(f"{protocol}: messages still in transit at C0")

    tsys.c0 = system.sim.snapshot()
    return tsys
