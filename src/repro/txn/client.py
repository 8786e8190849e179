"""Client runtime shared by every protocol.

A client executes transactions sequentially (at most one active
transaction — the paper's clients invoke one transaction at a time and
never communicate with other clients).  Protocol subclasses implement
:meth:`ClientBase.begin` (start the transaction: typically send one
message per involved server) and :meth:`ClientBase.handle_message`
(absorb server replies, possibly launch further rounds, and eventually
call :meth:`ClientBase.finish`).
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.sim.messages import Message, ProcessId
from repro.sim.process import Process, StepContext
from repro.txn.types import ObjectId, Transaction, TxnRecord, Value


class UnsupportedTransaction(Exception):
    """The protocol does not support this transaction shape.

    Raised e.g. by COPS/COPS-SNOW clients when handed a transaction that
    writes more than one object — giving up multi-object write
    transactions is precisely the functionality sacrifice the theorem is
    about, so the refusal is an explicit, catchable event.
    """


@dataclass
class ActiveTxn:
    """Book-keeping for the client's in-flight transaction."""

    txn: Transaction
    invoked_at: int
    reads: Dict[ObjectId, Value] = field(default_factory=dict)
    round: int = 0
    #: per-round outstanding server replies (protocol-managed)
    awaiting: Set[ProcessId] = field(default_factory=set)
    #: free-form protocol state
    state: Dict[str, Any] = field(default_factory=dict)


def _mask_active(active: Optional[ActiveTxn]) -> Optional[ActiveTxn]:
    """The canonical-fingerprint view of the in-flight transaction.

    Masks the ``invoked_at`` stamp (a global-event-counter value the
    client never branches on); used by :meth:`ClientBase.fp_state`.
    """
    if active is None:
        return None
    return dataclasses.replace(active, invoked_at=0)


def _mask_record(record: TxnRecord) -> TxnRecord:
    """Canonical view of one completed-transaction record (stamps masked)."""
    return dataclasses.replace(record, invoked_at=0, completed_at=0)


class ClientBase(Process):
    """Sequential transactional client."""

    def __init__(
        self,
        pid: ProcessId,
        servers: Sequence[ProcessId],
        placement: Mapping[ObjectId, Tuple[ProcessId, ...]],
    ):
        super().__init__(pid)
        self.servers: Tuple[ProcessId, ...] = tuple(servers)
        self.placement: Dict[ObjectId, Tuple[ProcessId, ...]] = dict(placement)
        self.pending: Deque[Transaction] = deque()
        self.current: Optional[ActiveTxn] = None
        self.completed: List[TxnRecord] = []
        self.failed: List[Tuple[Transaction, str]] = []

    # -- placement helpers ----------------------------------------------------

    def replicas(self, obj: ObjectId) -> Tuple[ProcessId, ...]:
        try:
            return self.placement[obj]
        except KeyError:
            raise KeyError(f"object {obj!r} is not placed on any server") from None

    def primary(self, obj: ObjectId) -> ProcessId:
        return self.replicas(obj)[0]

    def partition_objects(
        self, objects: Sequence[ObjectId]
    ) -> Dict[ProcessId, Tuple[ObjectId, ...]]:
        """Group objects by their primary server."""
        groups: Dict[ProcessId, List[ObjectId]] = {}
        for obj in objects:
            groups.setdefault(self.primary(obj), []).append(obj)
        return {s: tuple(objs) for s, objs in sorted(groups.items())}

    # -- invocation --------------------------------------------------------------

    def on_invoke(self, txn: Transaction) -> None:
        self.validate(txn)
        self.pending.append(txn)

    def validate(self, txn: Transaction) -> None:
        """Reject unsupported shapes; overridden by restricted protocols."""
        for obj in txn.objects:
            self.replicas(obj)

    def wants_step(self) -> bool:
        return bool(self.pending) or self.current is not None

    def stutters(self) -> bool:
        """While a transaction is in flight, a step with an empty inbox
        only calls the no-op :meth:`on_idle` — unless a subclass
        overrides ``on_step`` or ``on_idle``, and must answer this itself."""
        cls = type(self)
        return self.current is not None and (
            cls.on_step is ClientBase.on_step and cls.on_idle is ClientBase.on_idle
        )

    def fp_state(self):
        """Mask the global-event-counter stamps for canonical fingerprints.

        ``invoked_at`` / ``completed_at`` are post-hoc diagnostics (the
        latency metrics and the strict-serializability real-time edges);
        the client never branches on them, and their values shift when
        independent events elsewhere in the schedule are permuted.  The
        completion *order* — all the causal checkers consume — survives in
        the ``completed`` list order.
        """
        state = self.__getstate__()
        state["current"] = _mask_active(state.get("current"))
        state["completed"] = [_mask_record(r) for r in state["completed"]]
        return state

    # -- the step loop -------------------------------------------------------------

    def on_step(self, ctx: StepContext, inbox: Sequence[Message]) -> None:
        for msg in inbox:
            self.handle_message(ctx, msg)
        if self.current is None and self.pending and not ctx.sends:
            txn = self.pending.popleft()
            self.current = ActiveTxn(txn=txn, invoked_at=ctx.step_index)
            try:
                self.begin(ctx, self.current)
            except UnsupportedTransaction as exc:
                self.failed.append((txn, str(exc)))
                self.current = None
        elif self.current is not None:
            self.on_idle(ctx, self.current)

    # -- protocol hooks ----------------------------------------------------------

    def begin(self, ctx: StepContext, active: ActiveTxn) -> None:
        raise NotImplementedError

    def handle_message(self, ctx: StepContext, msg: Message) -> None:
        raise NotImplementedError

    def on_idle(self, ctx: StepContext, active: ActiveTxn) -> None:
        """Called on steps while a transaction is active; default no-op."""
        return None

    # -- completion ---------------------------------------------------------------

    def finish(self, ctx: StepContext) -> TxnRecord:
        """Complete the current transaction with the reads it gathered and
        record it."""
        if self.current is None:
            raise RuntimeError(f"{self.pid}: finish() with no active transaction")
        active = self.current
        observed = dict(active.reads)
        missing = set(active.txn.read_set) - set(observed)
        if missing:
            raise RuntimeError(
                f"{self.pid}: transaction {active.txn.txid} finished without "
                f"values for {sorted(missing)}"
            )
        record = TxnRecord(
            txn=active.txn,
            client=self.pid,
            reads=observed,
            invoked_at=active.invoked_at,
            completed_at=ctx.step_index,
        )
        self.completed.append(record)
        self.current = None
        return record
