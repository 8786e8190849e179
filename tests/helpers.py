"""Shared test helpers: tiny processes and history builders."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.messages import Message, Payload
from repro.sim.process import Process, StepContext
from repro.txn.types import ObjectId, Transaction, TxnRecord, Value


class Note(Payload):
    """A trivial payload carrying a token."""

    def __init__(self, token):
        self.token = token

    def __repr__(self):
        return f"Note({self.token!r})"


class Echo(Process):
    """Replies to every message with Note(('echo', token))."""

    def __init__(self, pid):
        super().__init__(pid)
        self.seen: List = []

    def on_step(self, ctx: StepContext, inbox: Sequence[Message]) -> None:
        for m in inbox:
            self.seen.append(m.payload.token)
            if not ctx.sent_to(m.src):
                ctx.send(m.src, Note(("echo", m.payload.token)))


class Pinger(Process):
    """Sends Note(i) to a target once per step, n times."""

    def __init__(self, pid, target, n=1):
        super().__init__(pid)
        self.target = target
        self.remaining = n
        self.got: List = []

    def wants_step(self) -> bool:
        return self.remaining > 0

    def on_step(self, ctx: StepContext, inbox: Sequence[Message]) -> None:
        for m in inbox:
            self.got.append(m.payload.token)
        if self.remaining > 0:
            ctx.send(self.target, Note(self.remaining))
            self.remaining -= 1


def rec(
    txid: str,
    client: str,
    *,
    reads: Optional[Dict[ObjectId, Value]] = None,
    writes: Optional[Dict[ObjectId, Value]] = None,
    invoked_at: int = 0,
    completed_at: Optional[int] = None,
) -> TxnRecord:
    """Build a TxnRecord tersely for checker tests."""
    reads = reads or {}
    writes = writes or {}
    txn = Transaction(
        txid, read_set=tuple(reads), writes=tuple(writes.items())
    )
    return TxnRecord(
        txn=txn,
        client=client,
        reads=reads,
        invoked_at=invoked_at,
        completed_at=completed_at if completed_at is not None else invoked_at + 1,
    )


def history_of(*records: TxnRecord):
    from repro.txn.history import History

    return History(records=list(records))


def result_key(r):
    """Everything an exploration promises bit for bit: the four counts
    and every violation's schedule and anomalies."""
    return (
        r.states_visited,
        r.states_deduped,
        r.schedules_completed,
        r.truncated,
        [(trace, [str(a) for a in anomalies]) for trace, anomalies in r.violations],
    )


def race_system(protocol: str):
    """The write/read-race scenario of ``explore_write_read_race``: its
    simulation, and the writer, the probe and the servers."""
    from repro.core.setup import prepare_theorem_system

    params = {"sync_every": 1} if protocol == "swiftcloud" else {}
    tsys = prepare_theorem_system(protocol, n_probes=2, **params)
    sim = tsys.sim
    for client, txn in tsys.race_script():
        sim.invoke(client, txn)
    return sim, (tsys.cw, tsys.probes[0]) + tuple(tsys.servers)
