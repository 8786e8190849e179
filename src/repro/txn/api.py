"""The public ``Store`` facade.

The high-level entry point a downstream user touches first::

    from repro import Store

    store = Store(protocol="cops_snow", objects=["X0", "X1"], n_servers=2)
    store.write("c0", {"X0": "hello"})
    values = store.read("c1", ["X0", "X1"])
    report = store.check_consistency()

Under the hood a :class:`~repro.protocols.base.System` runs the chosen
protocol on the simulator; the facade adds ergonomic read/write helpers,
history extraction and one-call consistency checking.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.protocols.base import System, build_system
from repro.sim.scheduler import RandomScheduler, RoundRobinScheduler, Scheduler
from repro.txn.history import History
from repro.txn.types import (
    ObjectId,
    Transaction,
    TxnRecord,
    Value,
    read_only_txn,
    rw_txn,
    write_only_txn,
)


class Store:
    """A running distributed transactional store (simulated)."""

    def __init__(
        self,
        protocol: str = "cops_snow",
        objects: Sequence[ObjectId] = ("X0", "X1"),
        n_servers: int = 2,
        clients: Sequence[str] = ("c0", "c1", "c2", "c3"),
        placement: Optional[Mapping[ObjectId, Tuple[str, ...]]] = None,
        replication: int = 1,
        seed: int = 0,
        **params: Any,
    ):
        self.system: System = build_system(
            protocol,
            objects=objects,
            n_servers=n_servers,
            clients=clients,
            placement=placement,
            replication=replication,
            **params,
        )
        self.protocol = protocol
        self.scheduler: Scheduler = (
            RandomScheduler(seed) if seed is not None else RoundRobinScheduler()
        )
        # one counter for every prefix: a store's txids depend only on
        # the calls made to it, not on what else ran in the process
        self._txids = itertools.count()

    # -- convenience accessors ------------------------------------------------

    @property
    def objects(self) -> Tuple[ObjectId, ...]:
        return self.system.config.objects

    @property
    def clients(self) -> Tuple[str, ...]:
        return self.system.clients

    @property
    def servers(self) -> Tuple[str, ...]:
        return self.system.servers

    # -- transactional API -----------------------------------------------------

    def execute(self, client: str, txn: Transaction, max_events: int = 50_000) -> TxnRecord:
        """Run one transaction to completion and return its record."""
        return self.system.execute(
            client, txn, scheduler=self.scheduler, max_events=max_events
        )

    def read(self, client: str, objects: Sequence[ObjectId]) -> Dict[ObjectId, Value]:
        """Execute a read-only transaction; returns object → value."""
        record = self.execute(client, read_only_txn(objects, txid=self._txid("r")))
        return dict(record.reads)

    def write(self, client: str, writes: Mapping[ObjectId, Value]) -> TxnRecord:
        """Execute a write-only transaction."""
        return self.execute(client, write_only_txn(writes, txid=self._txid("w")))

    def read_write(
        self,
        client: str,
        reads: Sequence[ObjectId],
        writes: Mapping[ObjectId, Value],
    ) -> TxnRecord:
        """Execute a read-write transaction (if the protocol supports it)."""
        return self.execute(client, rw_txn(reads, writes, txid=self._txid("rw")))

    def _txid(self, prefix: str) -> str:
        return f"{prefix}{next(self._txids)}"

    def settle(self, max_events: int = 50_000) -> None:
        """Drive background work (replication, stabilization) to quiescence."""
        self.system.settle(max_events=max_events)

    # -- observation --------------------------------------------------------------

    def history(self) -> History:
        return self.system.history()

    def check_consistency(self, exact: Optional[bool] = None) -> "Any":
        """Check the history against the protocol's claimed consistency level.

        Returns a :class:`~repro.consistency.report.ConsistencyReport`.
        With ``exact=True`` the search-based Definition-1 checker is used
        (small histories only); default picks by history size.
        """
        from repro.consistency import check_history

        return check_history(
            self.history(),
            level=self.system.info.consistency,
            exact=exact,
        )

    def dump_stores(self) -> Dict[str, Dict[ObjectId, List[Any]]]:
        """Final version chains per server (oracle data for the checkers)."""
        out: Dict[str, Dict[ObjectId, List[Any]]] = {}
        for spid in self.servers:
            server = self.system.server(spid)
            out[spid] = {obj: list(chain) for obj, chain in server.store.items()}
        return out
