"""Links, in-transit queues, and income buffers.

The model is a complete undirected graph; every ordered pair of distinct
processes is a directed link with

* an *in-transit* queue (the source's outcome buffer for that link), and
* the destination's *income buffer* slot for that link.

Links are reliable (no loss, duplication, corruption, injection) but
**asynchronous**: the adversary may deliver in-transit messages in any
order, including out of FIFO order on a single link.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from operator import attrgetter
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.sim.messages import Message, ProcessId

Link = Tuple[ProcessId, ProcessId]

_by_msg_id = attrgetter("msg_id")


class Network:
    """In-transit message storage plus per-process income buffers."""

    #: the undo journal of a live Simulation.mark: mutators add inverses
    _journal: Optional[list] = None
    #: the placement keys written since the last digest read them — a
    #: link ``(src, dst)`` or a pid's income buffer; None until a digest
    #: starts recording (see Snapshotter.digest)
    _touched: Optional[set] = None

    def __init__(self, pids: Iterable[ProcessId]):
        self.pids: Tuple[ProcessId, ...] = tuple(pids)
        if len(set(self.pids)) != len(self.pids):
            raise ValueError("duplicate process ids")
        # in-transit messages, per directed link
        self.in_transit: Dict[Link, Deque[Message]] = {}
        # delivered-but-unprocessed messages, per destination process
        self.income: Dict[ProcessId, List[Message]] = {p: [] for p in self.pids}
        # per-link send counters, for structural link_seq addressing
        self.link_counts: Dict[Link, int] = {}

    def _wrote(self, *keys) -> None:
        """Every mutator's one mark: record the placement keys it wrote
        (while a digest is recording)."""
        if self._touched is not None:
            self._touched.update(keys)

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_journal", None)
        state.pop("_touched", None)
        return state

    # -- sending ---------------------------------------------------------

    def next_link_seq(self, src: ProcessId, dst: ProcessId) -> int:
        return self.link_counts.get((src, dst), 0)

    def post(self, msg: Message) -> None:
        """Place a freshly sent message in the source's outcome buffer."""
        link = (msg.src, msg.dst)
        expected = self.link_counts.get(link, 0)
        if msg.link_seq != expected:
            raise ValueError(
                f"link_seq mismatch on {link}: got {msg.link_seq}, expected {expected}"
            )
        if self._journal is not None:
            self._journal.append(partial(self._unpost, link))
        self.link_counts[link] = expected + 1
        self.in_transit.setdefault(link, deque()).append(msg)
        self._wrote(link)

    def _unpost(self, link: Link) -> None:
        self.in_transit[link].pop()
        self.link_counts[link] -= 1
        if not self.link_counts[link]:  # this post made the link: unmake it
            del self.in_transit[link], self.link_counts[link]
        self._wrote(link)

    # -- delivery --------------------------------------------------------

    def pending(self, src: Optional[ProcessId] = None, dst: Optional[ProcessId] = None) -> List[Message]:
        """All in-transit messages by ``msg_id``, optionally filtered by endpoint.

        ``in_transit`` keeps an entry for every link ever used, most of
        them empty at any moment: empty queues are skipped, and the
        unfiltered call (one per enabled-set enumeration) does not look
        at the link keys at all.
        """
        out: List[Message] = []
        if src is None and dst is None:
            for q in self.in_transit.values():
                if q:
                    out.extend(q)
        else:
            for (s, d), q in self.in_transit.items():
                if q and (src is None or s == src) and (dst is None or d == dst):
                    out.extend(q)
        if len(out) > 1:
            out.sort(key=_by_msg_id)
        return out

    def find(self, src: ProcessId, dst: ProcessId, link_seq: int) -> Optional[Message]:
        q = self.in_transit.get((src, dst))
        if not q:
            return None
        for m in q:
            if m.link_seq == link_seq:
                return m
        return None

    def deliver(self, src: ProcessId, dst: ProcessId, link_seq: int) -> Message:
        """Move one message from in-transit to the destination's income buffer.

        The adversary addresses the message structurally by
        ``(src, dst, link_seq)``; delivery need not be FIFO.
        """
        link = (src, dst)
        q = self.in_transit.get(link)
        if q:
            for i, m in enumerate(q):
                if m.link_seq == link_seq:
                    if self._journal is not None:
                        self._journal.append(partial(self._undeliver, link, i))
                    del q[i]
                    self.income[dst].append(m)
                    self._wrote(link, dst)
                    return m
        raise KeyError(f"no in-transit message {src}->{dst}#{link_seq}")

    def _undeliver(self, link: Link, i: int) -> None:
        self.in_transit[link].insert(i, self.income[link[1]].pop())
        self._wrote(link, link[1])

    def drain_income(self, pid: ProcessId) -> List[Message]:
        """Remove and return every delivered message awaiting ``pid``.

        The batch is presented in canonical ``(src, link_seq)`` order:
        in the model a step reads the *set* of messages residing in its
        income buffers, so the order in which the adversary happened to
        deliver them within one batch is a simulator artifact.  The
        canonical presentation makes a process's behaviour a function of
        the batch set — which is exactly what lets the exploration
        engine treat two deliveries to the same process as commuting
        (see :mod:`repro.sim.events`).
        """
        msgs = self.income[pid]
        if msgs:
            if self._journal is not None:
                # arrival order: the strict placement keys on it
                self._journal.append(partial(self._undrain, pid, msgs[:]))
            # canonicalize, then detach and record the write
            msgs.sort(key=lambda m: (m.src, m.link_seq))
            self.income[pid] = []
            self._wrote(pid)
        return msgs

    def _undrain(self, pid: ProcessId, arrived: List[Message]) -> None:
        self.income[pid] = arrived
        self._wrote(pid)

    # -- inspection ------------------------------------------------------

    def n_in_transit(self) -> int:
        return sum(len(q) for q in self.in_transit.values())

    def n_income(self) -> int:
        return sum(len(v) for v in self.income.values())

    def idle(self) -> bool:
        """True when no message is in transit and no income buffer is full."""
        return self.n_in_transit() == 0 and self.n_income() == 0
