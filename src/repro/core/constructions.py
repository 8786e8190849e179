"""Constructions 1 and 2 of the paper, executable (Figure 2).

``run_sigma_old`` plays the first half of Construction 1: a fresh client
``c_r`` invokes the fast read-only transaction ``T_r`` in one
computation step; the adversary delivers its request to every *old*
server first, each of which must answer within a single step
(non-blocking) — the paper's σ_old prefix, generalized from one old
server (Theorem 1) to "every server except p" (Theorem 2's Lemma 4).

``finish_with_new`` plays σ_new plus the closing delivery schedule: the
withheld request finally reaches the *new* server ``p`` (which by then
has executed the spliced β_new and therefore answers with the written
value), all responses are delivered, and ``c_r`` completes ``T_r``.

The two halves sandwich a replayed ``β_new`` to build the paper's γ (or
δ, with ρ_new in the middle).  The read values that come out the other
end are the contradiction: old from the servers that answered before
the splice, new from ``p``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.executor import Simulation
from repro.sim.messages import Message, ProcessId
from repro.sim.trace import StepEvent
from repro.txn.client import ClientBase
from repro.txn.types import ObjectId, TxnRecord, Value, read_only_txn

#: steps the reader may take to complete ``T_r`` once every response is in
MAX_CLIENT_STEPS = 8


class ConstructionError(RuntimeError):
    """The protocol deviated from fast-ROT behaviour mid-construction.

    Raised when the client needs more than one step to issue all its
    read requests, or a server fails to respond within the step that
    received the request — i.e. the protocol is not actually fast, which
    the engine reports as a NOT_FAST diagnostic.
    """


@dataclass
class SigmaOldResult:
    reader: ProcessId
    txid: str
    #: requests still in transit, per destination server
    pending_requests: Dict[ProcessId, Message]
    #: old servers that already replied (their responses are in transit)
    replied: Tuple[ProcessId, ...]


def run_sigma_old(
    sim: Simulation,
    reader: ProcessId,
    objects: Sequence[ObjectId],
    old_servers: Sequence[ProcessId],
    new_servers: Sequence[ProcessId],
    txid: Optional[str] = None,
) -> SigmaOldResult:
    """Execute σ_old from the current configuration (no snapshotting).

    The read is ``txid``, or else named after the reader and the number
    of transactions it has completed."""
    client = sim.processes[reader]
    assert isinstance(client, ClientBase)
    txn = read_only_txn(
        objects, txid=txid or f"{reader}.sigma_old{len(client.completed)}"
    )
    sim.invoke(reader, txn)
    ev = sim.step(reader)
    requests = {m.dst: m for m in ev.sent}
    involved = set(old_servers) | set(new_servers)
    missing = involved - set(requests)
    if missing:
        raise ConstructionError(
            f"fast ROT must contact all involved servers in one step; "
            f"{reader} did not message {sorted(missing)}"
        )
    replied: List[ProcessId] = []
    for server in old_servers:
        sim.deliver_msg(requests[server])
        sev = sim.step(server)
        if not any(m.dst == reader for m in sev.sent):
            raise ConstructionError(
                f"server {server} did not respond to {reader}'s read in the "
                f"step that received it (blocking)"
            )
        replied.append(server)
    pending = {s: requests[s] for s in new_servers}
    return SigmaOldResult(
        reader=reader,
        txid=txn.txid,
        pending_requests=pending,
        replied=tuple(replied),
    )


def finish_with_new(sim: Simulation, sigma: SigmaOldResult) -> TxnRecord:
    """Deliver the withheld requests to the new server(s), collect all
    responses, and let the reader complete ``T_r``."""
    reader = sigma.reader
    for server, request in sigma.pending_requests.items():
        sim.deliver_msg(request)
        sev = sim.step(server)
        if not any(m.dst == reader for m in sev.sent):
            raise ConstructionError(
                f"server {server} did not respond to {reader}'s read in the "
                f"step that received it (blocking)"
            )
    client = sim.processes[reader]
    assert isinstance(client, ClientBase)
    before = len(client.completed)
    for _ in range(MAX_CLIENT_STEPS):
        for msg in sim.network.pending(dst=reader):
            sim.deliver_msg(msg)
        sim.step(reader)
        if len(client.completed) > before:
            return client.completed[-1]
        if client.current is None:
            break
    raise ConstructionError(
        f"{reader} did not complete its fast ROT after receiving all "
        f"responses (needed more than {MAX_CLIENT_STEPS} steps)"
    )
