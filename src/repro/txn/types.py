"""Transaction types.

A (static) transaction ``T = (R_T, W_T)`` reads the objects in its
read-set and writes the objects in its write-set (Section 2).  If
``W_T = ∅`` the transaction is read-only; if ``R_T = ∅`` it is
write-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

ObjectId = str
Value = Any


class _Bottom:
    """⊥ — the value returned for an object never written.

    The paper's progress definitions exist precisely to rule out trivial
    implementations that always return ⊥; the checkers treat ⊥ as "the
    initial value", ordered causally before every written value.
    """

    _instance: Optional["_Bottom"] = None

    def __new__(cls) -> "_Bottom":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊥"

    def __reduce__(self):  # keep singleton identity across deepcopy/pickle
        return (_Bottom, ())


BOTTOM = _Bottom()

@dataclass(frozen=True)
class Transaction:
    """A static transaction: read-set plus ordered write list."""

    txid: str
    read_set: Tuple[ObjectId, ...] = ()
    writes: Tuple[Tuple[ObjectId, Value], ...] = ()

    def __post_init__(self) -> None:
        if len(set(self.read_set)) != len(self.read_set):
            raise ValueError(f"duplicate objects in read-set of {self.txid}")
        wkeys = [k for k, _ in self.writes]
        if len(set(wkeys)) != len(wkeys):
            raise ValueError(f"duplicate objects in write-set of {self.txid}")
        if not self.read_set and not self.writes:
            raise ValueError(f"empty transaction {self.txid}")

    @property
    def write_set(self) -> Tuple[ObjectId, ...]:
        return tuple(k for k, _ in self.writes)

    @property
    def write_map(self) -> Dict[ObjectId, Value]:
        return dict(self.writes)

    @property
    def is_read_only(self) -> bool:
        return not self.writes

    @property
    def is_write_only(self) -> bool:
        return not self.read_set

    @property
    def objects(self) -> FrozenSet[ObjectId]:
        return frozenset(self.read_set) | frozenset(self.write_set)

    def __repr__(self) -> str:
        parts = [f"r({x})" for x in self.read_set]
        parts += [f"w({x}){v}" for x, v in self.writes]
        return f"{self.txid}=({', '.join(parts)})"


def read_only_txn(objects: Sequence[ObjectId], txid: str) -> Transaction:
    return Transaction(txid, read_set=tuple(objects))


def write_only_txn(writes: Mapping[ObjectId, Value], txid: str) -> Transaction:
    return Transaction(txid, writes=tuple(writes.items()))


def rw_txn(
    reads: Sequence[ObjectId], writes: Mapping[ObjectId, Value], txid: str
) -> Transaction:
    return Transaction(txid, read_set=tuple(reads), writes=tuple(writes.items()))


@dataclass(frozen=True)
class TxnRecord:
    """A completed transaction as observed at its client.

    ``reads`` maps each object of the read-set to the value returned;
    ``invoked_at`` / ``completed_at`` are event-counter stamps used for
    real-time precedence.  A transaction's causal past is not stored: the
    checkers derive it from the history (program order ∪ reads-from).
    """

    txn: Transaction
    client: str
    reads: Mapping[ObjectId, Value]
    invoked_at: int
    completed_at: int
    meta: Mapping[str, Any] = field(default_factory=dict)

    @property
    def txid(self) -> str:
        return self.txn.txid

    def __repr__(self) -> str:
        rd = ", ".join(f"r({x}){v!r}" for x, v in sorted(self.reads.items()))
        wr = ", ".join(f"w({x}){v!r}" for x, v in self.txn.writes)
        body = ", ".join(p for p in (rd, wr) if p)
        return f"{self.txid}@{self.client}[{body}]"
