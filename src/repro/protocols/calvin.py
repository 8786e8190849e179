"""Calvin-style — deterministic transaction sequencing.

Table 1 row: R = 2, V = 1, **blocking**, WTX, strict serializability.

A dedicated sequencer process batches incoming transactions, assigns
them a global order, and forwards each transaction to the servers that
hold its objects, together with a dense per-server slot number.  Every
server executes its transactions strictly in slot order — buffering and
*deferring* any batch that arrives ahead of a gap (the blocking Table 1
records) — and sends its part of the result (read values / write acks)
directly to the client.  Because every server applies the same global
order, the execution is strictly serializable by construction.

Round counting caveat: the client performs a single send phase (to the
sequencer), but the critical path is three message hops
(client → sequencer → server → client), which is why Table 1 counts two
rounds.  The metrics module reports both the send-phase count and the
hop count; EXPERIMENTS.md reconciles them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Set, Tuple

from repro.sim.messages import Message, Payload, ProcessId
from repro.sim.process import Process, StepContext
from repro.protocols.base import (
    ReadReply,
    ReadRequest,
    ServerBase,
    ServerMsg,
    TxnClient,
    ValueEntry,
    Version,
    WriteReply,
    WriteRequest,
)
from repro.txn.client import ActiveTxn
from repro.txn.types import ObjectId, Transaction


@dataclass(frozen=True)
class CalvinSubmit(Payload):
    """Client → sequencer: a whole transaction."""

    txid: str
    reads: Tuple[ObjectId, ...]
    writes: Tuple[Tuple[ObjectId, object], ...]
    client: ProcessId

    value_fields = ()  # client→server; not subject to the one-value rule


class CalvinSequencer(Process):
    """Orders all transactions; one batch message per server per step."""

    def __init__(self, pid: ProcessId, servers: Sequence[ProcessId], placement):
        super().__init__(pid)
        self.servers = tuple(servers)
        self.placement = dict(placement)
        self.global_seq = 0
        self.slot_counters: Dict[ProcessId, int] = {s: 0 for s in self.servers}
        self.backlog: List[CalvinSubmit] = []

    def wants_step(self) -> bool:
        return bool(self.backlog)

    def on_step(self, ctx: StepContext, inbox: Sequence[Message]) -> None:
        for msg in inbox:
            if isinstance(msg.payload, CalvinSubmit):
                self.backlog.append(msg.payload)
            else:  # pragma: no cover - defensive
                raise TypeError(f"sequencer got {type(msg.payload).__name__}")
        if not self.backlog:
            return
        per_server: Dict[ProcessId, List[dict]] = {}
        for sub in self.backlog:
            self.global_seq += 1
            involved = sorted(
                {self.placement[o][0] for o in sub.reads}
                | {self.placement[o][0] for o, _ in sub.writes}
            )
            for server in involved:
                slot = self.slot_counters[server]
                self.slot_counters[server] = slot + 1
                per_server.setdefault(server, []).append(
                    {
                        "seq": self.global_seq,
                        "slot": slot,
                        "txid": sub.txid,
                        "reads": tuple(
                            o for o in sub.reads if self.placement[o][0] == server
                        ),
                        "writes": tuple(
                            (o, v)
                            for o, v in sub.writes
                            if self.placement[o][0] == server
                        ),
                        "client": sub.client,
                        "n_parts": len(involved),
                    }
                )
        self.backlog = []
        for server, entries in per_server.items():
            ctx.send(server, ServerMsg(kind="calvin_batch", data={"entries": entries}))


class CalvinServer(ServerBase):
    """Executes its slice of the global log strictly in slot order."""

    def __init__(self, pid, objects, peers, placement):
        super().__init__(pid, objects, peers, placement)
        self.next_slot = 0
        self.buffered: Dict[int, dict] = {}

    def handle_server(self, ctx: StepContext, msg: Message, sm: ServerMsg) -> None:
        assert sm.kind == "calvin_batch"
        for entry in sm.data["entries"]:
            self.buffered[entry["slot"]] = entry
        self._drain(ctx)

    def _drain(self, ctx: StepContext) -> None:
        while self.next_slot in self.buffered:
            entry = self.buffered.pop(self.next_slot)
            self.next_slot += 1
            self._execute(ctx, entry)

    def _execute(self, ctx: StepContext, entry: dict) -> None:
        txid, client, seq = entry["txid"], entry["client"], entry["seq"]
        read_entries = tuple(self.latest(obj).entry() for obj in entry["reads"])
        for obj, val in entry["writes"]:
            self.install(
                Version(obj=obj, value=val, ts=(seq, self.pid), txid=txid)
            )
        if read_entries:
            self.queue_send(
                ctx,
                client,
                ReadReply(txid=txid, values=read_entries, meta={"seq": seq}),
            )
        else:
            self.queue_send(
                ctx, client, WriteReply(txid=txid, kind="committed", meta={"seq": seq})
            )

    def handle_read(self, ctx, msg, req):  # pragma: no cover - not used
        raise TypeError("Calvin reads go through the sequencer")

    def handle_write(self, ctx, msg, req):  # pragma: no cover - not used
        raise TypeError("Calvin writes go through the sequencer")


class CalvinClient(TxnClient):
    def __init__(self, pid, servers, placement, sequencer: ProcessId):
        super().__init__(pid, servers, placement)
        self.sequencer = sequencer

    def begin_read(self, ctx: StepContext, active: ActiveTxn) -> None:
        """Every transaction, whatever its shape, goes to the sequencer whole."""
        txn = active.txn
        involved = {self.primary(o) for o in txn.objects}
        active.awaiting = set(involved)
        active.round += 1
        ctx.send(
            self.sequencer,
            CalvinSubmit(
                txid=txn.txid,
                reads=txn.read_set,
                writes=txn.writes,
                client=self.pid,
            ),
        )

    begin_write = begin_read

    def handle_read_reply(
        self, ctx: StepContext, active: ActiveTxn, msg: Message, reply: ReadReply
    ) -> None:
        for entry in reply.values:
            active.reads[entry.obj] = entry.value
        self.count_reply(ctx, active, msg)

    def handle_write_reply(
        self, ctx: StepContext, active: ActiveTxn, msg: Message, reply: WriteReply
    ) -> None:
        self.count_reply(ctx, active, msg)
