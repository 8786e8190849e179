"""Configurations as values: capture, load, digest.

A :class:`~repro.sim.executor.Simulation` owns the live processes and
network; a snapshotter turns them into a configuration
(:meth:`~Snapshotter.capture`), materializes one afresh
(:meth:`~Snapshotter.load`) and hashes the live state for revisit
pruning (:meth:`~Snapshotter.digest`).  :class:`Snapshotter` is the
production path and holds every cache of the snapshot stack — the rows,
the state table with its interned objects, the transition table, the
placement slot vector, the payload memo; ``docs/model.md`` tabulates the
measurement that keeps each.
:class:`DeepCopySnapshotter` is the oracle the tests compare it against,
and caches nothing.
"""

from __future__ import annotations

import copy
import hashlib
import io
import pickle
import struct
import weakref
from collections import deque
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import (
    TYPE_CHECKING, Any, Callable, ClassVar, Dict, Iterable, List, Optional, Tuple
)

from repro.sim.messages import Message, ProcessId
from repro.sim.network import Network
from repro.sim.process import Process, StepContext

if TYPE_CHECKING:
    from repro.sim.executor import SimCounters

#: Snapshots are serialized at pickle protocol 5 (out-of-band-buffer era,
#: the fastest framing available).
PICKLE_PROTOCOL = 5

#: the two snapshot implementations: "bytes" (component-granular
#: snapshots, the default) and "deepcopy" (the reference oracle).
SNAPSHOT_MODES = ("bytes", "deepcopy")


def _net_capture(net: Network):
    """Snapshot a network as an immutable structural tuple — zero bytes.

    The network's mutable state is pure *placement*: which
    :class:`~repro.sim.messages.Message` sits in which in-transit queue
    or income buffer, plus the per-link send counters.  The messages
    themselves are immutable once sent (the model's "links do not modify
    messages", enforced by lint rule RL404, whose contract already
    shares payloads by reference with any open recording window) — so a
    snapshot needs no serialization at all: capture the container
    *shapes* in immutable tuples and hold the message objects by
    reference.  Restoring (:func:`_net_build`) rebuilds fresh containers
    around the same messages, which satisfies the Configuration ownership
    rule the same way ``copy.deepcopy`` does when it returns immutables
    by identity.
    Every capture builds every tuple afresh from the live containers, so
    no two captures can alias a queue they disagree on.
    """
    return (
        net.pids,
        tuple([(link, tuple(q)) for link, q in net.in_transit.items()]),
        tuple(net.link_counts.items()),
        tuple([(pid, tuple(v)) for pid, v in net.income.items()]),
    )


def _net_build(state) -> Network:
    """Materialize a private :class:`Network` from a structural capture.

    Containers are rebuilt fresh (mutating the result never touches the
    capture or any other materialization); the immutable messages are
    shared by reference.
    """
    pids, transit, counts, income = state
    net = Network.__new__(Network)
    net.pids = pids
    net.in_transit = {link: deque(q) for link, q in transit}
    net.link_counts = dict(counts)
    net.income = {pid: list(v) for pid, v in income}
    return net


class _SetMark:
    """Sentinel class tagging a canonicalized (sorted) set — see _canonize."""


class _ObjMark:
    """Sentinel class tagging a canonicalized object — see _canonize."""


_ATOMIC_TYPES = (str, int, float, bool, bytes, type(None))


def _fast_dumps(obj: Any) -> bytes:
    """C pickle in *fast mode* (no memo): bytes are identity-blind."""
    buf = io.BytesIO()
    p = pickle.Pickler(buf, PICKLE_PROTOCOL)
    p.fast = True
    p.dump(obj)
    return buf.getvalue()


def _canonize(obj: Any) -> Any:
    """Rewrite a state tree into a canonical, order-deterministic form.

    Containers are rebuilt bottom-up; sets and frozensets become
    ``(_SetMark, is_frozen, sorted elements)`` with elements ordered by
    their own canonical bytes (a total order that never compares
    heterogeneous elements with ``<``); any other object becomes
    ``(_ObjMark, module, qualname, canonized state)``, where the state
    is ``__getstate__()`` — except for a ``deque``, whose
    ``__getstate__()`` is ``None`` (its items live outside any
    ``__dict__``) and which is canonized as its ``maxlen`` plus its
    items in order.  Any other iterable whose ``__getstate__()`` is
    ``None`` would hash as empty whatever it holds, so it is refused
    with :class:`TypeError`; a stateless non-container sentinel stays
    legal.  The sentinel *classes* are picklable by reference and cannot
    collide with protocol-state values.  Dicts keep their insertion
    order — both ``copy.deepcopy`` and ``pickle.loads`` preserve it, so
    it is already deterministic.
    """
    t = type(obj)
    if t in _ATOMIC_TYPES:
        return obj
    if t is tuple:
        return tuple(_canonize(x) for x in obj)
    if t is list:
        return [_canonize(x) for x in obj]
    if t is dict:
        return {_canonize(k): _canonize(v) for k, v in obj.items()}
    if t is set or t is frozenset:
        entries = [(_fast_dumps(cx), cx) for cx in map(_canonize, obj)]
        entries.sort(key=itemgetter(0))
        return (_SetMark, t is frozenset, [cx for _, cx in entries])
    if t is deque:
        state = (obj.maxlen, list(obj))
    else:
        state = obj.__getstate__()
        if state is None and hasattr(t, "__iter__"):
            raise TypeError(
                f"cannot fingerprint {t.__module__}.{t.__qualname__}: an "
                "iterable whose __getstate__() is None hides its contents"
            )
    return (_ObjMark, t.__module__, t.__qualname__, _canonize(state))


def dumps_canonical(obj: Any) -> bytes:
    """Pickle ``obj`` by *value*, blind to identity and set order.

    Fingerprint serializations must be a pure function of the state's
    values.  A normal pickle is not, on two counts:

    * **Object identity.**  The pickle memo distinguishes a state
      holding two references to one ``'X0'`` string from a state
      holding two equal copies — and *which* of those a live
      simulation holds depends on how it got there
      (``copy.deepcopy`` returns immutables by identity, so a
      restored branch keeps referencing the very same interned
      strings as objects created afterwards, while ``pickle.loads``
      materializes fresh copies).  Pickle's *fast mode* disables the
      memo — repeated references are re-serialized inline.  (Fast
      mode cannot handle cyclic state; protocol state here is plain
      acyclic data.)
    * **Set iteration order.**  Sets serialize in hash-table order,
      which depends on the interpreter's hash seed *and* on the
      set's construction history — a set rebuilt by ``loads`` can
      iterate differently from the equal set it was dumped from.
      :func:`_canonize` rewrites sets and frozensets into sorted
      form.  (Dicts are insertion-ordered and pickle preserves that
      order, so they are already deterministic.)

    The canonical rewrite is a light Python walk; the byte emission
    stays on the C pickler.  (The C pickler alone cannot do this: it
    fast-paths exact builtin containers before consulting
    ``reducer_override``, so set order cannot be intercepted there.)
    """
    return _fast_dumps(_canonize(obj))


def _digest(dump: bytes) -> bytes:
    return hashlib.blake2b(dump, digest_size=16).digest()


def _state_digest(proc: Process, canonical: bool) -> bytes:
    """The 16-byte digest of one process's value-canonical state.

    Deliberately a *different* serialization than the snapshot's
    sub-blobs, whose pickle memo encodes object-sharing topology (a
    strictly finer relation than the value equality the exploration
    engine has always pruned with).  ``canonical=True`` digests
    :meth:`Process.fp_state` instead of the raw snapshot state, so data
    the process never branches on (a client's event-counter stamps) is
    masked out of the trace-canonical fingerprint.
    """
    state = proc.fp_state() if canonical else proc.__getstate__()
    return _digest(dumps_canonical(state))


def _canon_payload(m: Message) -> bytes:
    return dumps_canonical(m.payload)


_COUNT = struct.Struct(">I").pack
_ENTRY = struct.Struct(">III").pack
_NO_MSGS = _COUNT(0)
_EMPTY = pickle.dumps([], PICKLE_PROTOCOL)
_NO_LINK = pickle.dumps(None, PICKLE_PROTOCOL)


def _slot_keys(order: Tuple[ProcessId, ...]) -> list:
    """The placement keys in slot order: every ordered pair of distinct
    pids (a link), then every pid (its income buffer)."""
    return [(s, d) for s in order for d in order if s != d] + list(order)


def placement_slots(
    net: Network,
    idx: Dict[ProcessId, int],
    canonical: bool,
    keys: Optional[Iterable] = None,
    canon: Callable[[Message], bytes] = _canon_payload,
) -> List[bytes]:
    """The live network's message placement, one self-delimiting slot
    per placement key (all of :func:`_slot_keys`, or just ``keys``).

    **Strict** keying: the pickled ``msg_id`` list of a link's queue or
    an income buffer in arrival order, and ``None`` for a link absent
    from ``in_transit`` — a link that emptied is not a link never used.
    ``link_counts`` stays out.  Two configurations get the same slots
    **iff** their placements are equal.

    **Canonical** keying (POR), blind to global ``msg_id``s: a count,
    then one entry ``(src idx, link_seq, len, canonical payload)`` per
    message — in queue order on a link (always send order), sorted in an
    income buffer, because :meth:`Network.drain_income` presents every
    batch in canonical order, making a step's behaviour a function of
    the batch set.  Configurations reached by commuting independent
    events therefore collide, and an emptied link equals one never
    used.  The entry carries the payload (``canon(m)``): without the
    ``msg_id`` numbering, ``(src, link_seq)`` no longer determines what
    a message says.
    """
    if keys is None:
        keys = _slot_keys(tuple(sorted(idx, key=idx.__getitem__)))
    transit, income = net.in_transit, net.income
    out: List[bytes] = []
    for key in keys:
        msgs = transit.get(key) if type(key) is tuple else income[key]
        if not msgs:  # most slots: a constant
            out.append(_NO_MSGS if canonical else _NO_LINK if msgs is None else _EMPTY)
        elif not canonical:
            out.append(pickle.dumps([m.msg_id for m in msgs], PICKLE_PROTOCOL))
        else:
            entries = []
            for m in msgs:
                payload = canon(m)
                entries.append(_ENTRY(idx[m.src], m.link_seq, len(payload)) + payload)
            if type(key) is not tuple:
                entries.sort()
            out.append(_COUNT(len(entries)) + b"".join(entries))
    return out


class Configuration:
    """A component-granular snapshot of a configuration.

    One immutable pickle sub-blob per :class:`Process` plus one
    structural capture of the :class:`Network`.  Process sub-blobs are
    *interned* through the snapshotter's state table, so byte-equal
    states of one run hold one ``bytes`` object: a process that did not
    change between two snapshots shares its sub-blob by reference.  The
    network is captured afresh by every snapshot.
    :meth:`Snapshotter.load` is a **plain load**: every process is
    unpickled from its sub-blob and the network rebuilt from its
    capture, whatever the live state holds.  A snapshot carries no
    fingerprint data: a restored process finds its digests in the state
    table through its sub-blob (see :meth:`Snapshotter.digest`).

    The network's capture costs no serialization in either direction
    (see :func:`_net_capture`).  The process sub-blobs stay pickled
    bytes — process state is arbitrary mutable protocol data, so only a
    byte-level copy isolates branches.

    **Aliasing contract:** a snapshot must preserve object identity
    *within* a process — protocols may alias one mutable object from two
    fields (``CopsSnowServer`` holds one ``Version`` in ``store`` and in
    ``pending[txid].version`` and flips it visible in place); sharing
    *across* processes is never relied on.  One pickle memo per
    sub-blob gives exactly that: an intra-process alias survives a
    restore, while an object referenced from two processes
    deserializes to two equal copies — harmless, because messages are
    immutable and fingerprints serialize by *value* (identity-blind
    fast-mode pickle, :func:`dumps_canonical`).  A capture finer than
    one process (per field, per cell) would split intra-process aliases
    and silently change verdicts.  ``snapshot_mode="deepcopy"`` remains
    the bit-identical oracle.

    **Ownership rule:** a Configuration may be restored any number of
    times, and restoring must never hand out mutable state aliased with
    the snapshot.  Sub-blobs are immutable bytes and the network capture
    is immutable tuples over immutable messages, and every restored
    component is a fresh materialization: a restore never hands back a
    live object.

    :meth:`fork` shares the (immutable) captures, so it stays O(1).
    """

    __slots__ = ("proc_blobs", "net_state", "msg_counter", "event_count")

    #: the snapshot mode whose snapshotter restores this class
    mode: ClassVar[str] = "bytes"

    def __init__(
        self,
        proc_blobs: Tuple[Tuple[ProcessId, bytes], ...],
        net_state,
        msg_counter: int,
        event_count: int,
    ):
        #: per-process sub-blobs, in the process map's insertion order
        #: (restore rebuilds the map in exactly this order)
        self.proc_blobs = proc_blobs
        #: the network's structural capture (see :func:`_net_capture`)
        self.net_state = net_state
        self.msg_counter = msg_counter
        self.event_count = event_count

    @property
    def processes(self) -> Dict[ProcessId, Process]:
        """Materialize private copies of the snapshotted processes.

        Decodes the process sub-blobs only (each property access is a
        fresh, independent materialization of just its half).
        """
        return {pid: pickle.loads(blob) for pid, blob in self.proc_blobs}

    @property
    def network(self) -> Network:
        """Materialize a private copy of the snapshotted network."""
        return _net_build(self.net_state)

    def fork(self) -> "Configuration":
        return Configuration(
            proc_blobs=self.proc_blobs,  # immutable: share, don't copy
            net_state=self.net_state,
            msg_counter=self.msg_counter,
            event_count=self.event_count,
        )

    def size_bytes(self) -> int:
        """Serialized bytes held: the process sub-blobs.

        The network capture holds no serialized bytes at all (structural
        tuples over shared immutable messages), so it contributes zero.
        """
        return sum(len(b) for _, b in self.proc_blobs)


@dataclass
class DeepCopyConfiguration:
    """The pre-optimization snapshot: deep copies of the live objects.

    Kept as a reference implementation (``snapshot_mode="deepcopy"``) so
    tests can pin the old contract against the bytes path in one
    process.  Restoring one of these must fork first — the held objects
    would otherwise alias live state after a restore.
    """

    processes: Dict[ProcessId, Process]
    network: Network
    msg_counter: int
    event_count: int

    #: the snapshot mode whose snapshotter restores this class
    mode: ClassVar[str] = "deepcopy"

    def fork(self) -> "DeepCopyConfiguration":
        return DeepCopyConfiguration(
            processes=copy.deepcopy(self.processes),
            network=copy.deepcopy(self.network),
            msg_counter=self.msg_counter,
            event_count=self.event_count,
        )

    def size_bytes(self) -> int:  # parity with Configuration
        return len(pickle.dumps((self.processes, self.network), PICKLE_PROTOCOL))


class _CompRow:
    """One process's row: the live object ``obj`` and ``rec``, the state
    table's record for its sub-blob — the interned ``pickle.dumps(obj)``,
    the :func:`_state_digest` of ``__getstate__()`` and of
    ``fp_state()``, and a weak reference to the object journaled events
    place for that state — shared by every row whose process pickles to
    the same bytes.

    Rows exist only while a journal is live.  There a process changes
    only by being swapped for another object (:meth:`Snapshotter.apply`),
    so a row is valid while the live process *is* ``obj``.  Dropping the
    journal drops every row (:meth:`Snapshotter.detach`): outside a
    journal a process changes in place, and nothing is cached for it.
    """

    __slots__ = ("obj", "rec")

    def __init__(self, obj: Any, rec: Optional[list]):
        self.obj = obj
        self.rec = rec


_NO_ROW = _CompRow(None, None)

#: caps for the content memos, cleared on overflow (pure caches, so the
#: only cost is re-deriving a few live entries): the state table
#: (sub-blob → record; the distinct process states of one exploration
#: number in the hundreds), the transition table, and the payload memos
_STATE_TABLE_CAP = 4096
_PAYLOAD_MEMO_CAP = 1024
#: the interned objects placed last, held strongly (records hold theirs
#: weakly, and a dead one is reloaded from its blob)
_RING = 256


def _step_key(pre: list, inbox: Iterable[Message]) -> tuple:
    """The transition table's key of a step that never read its step
    index: the pre-state record and the inbox.  A step that read it is
    filed under ``(key, index)``.  ``msg_id`` stays in the key, because
    a payload handler may read it."""
    # repro-lint: disable=RL103 — identity-guarded key; the transition
    # table's entry pins the record and the payloads, and messages sort
    # by (src, link_seq), unique in one batch, so no id is ever compared
    return (id(pre), *sorted([(m.src, m.link_seq, m.msg_id, id(m.payload)) for m in inbox]))


class Snapshotter:
    """The ``"bytes"`` path: interned captures and content-addressed digests.

    Under a journal it trusts its process rows; elsewhere it reads the
    live objects (see :class:`_CompRow`).  Books its cache traffic into
    ``counters`` (the simulation's
    :class:`~repro.sim.executor.SimCounters`).
    """

    def __init__(self, counters: "SimCounters"):
        self.counters = counters
        # per-process rows, keyed by pid, while a journal is live; see
        # _CompRow.  Rows hold the process strongly, so object ids
        # cannot be recycled into false hits.  Kept: digests, captures
        # and undo swaps key on them
        self._rows: Dict[ProcessId, _CompRow] = {}
        # the state table: process sub-blob -> [interned sub-blob, fp
        # digest, fp_canon digest, weakref to the interned object or
        # None].  Content-addressed, so a per-process state is walked by
        # _canonize once per run, not once per visit; bounded by
        # _STATE_TABLE_CAP (cleared on overflow).  Kept: PR 14 measured
        # -36...-46 % pass_s on the three exploration workloads
        self._states: Dict[bytes, list] = {}
        self._ring: deque = deque(maxlen=_RING)
        # (pre-state record id, inbox), with the step index if the step
        # read it -> (pre-state record, inbox payloads, post-state
        # record, sends); see reuse() and apply()
        self._transitions: Dict[tuple, tuple] = {}
        # canonical payload bytes, keyed by payload identity (the entry
        # pins the payload).  Kept: without it por_3s pass_s is +17 %
        # and pool_w2 +32 % (PR 17, 3/3 pairs, then keyed by message)
        self._canon: Dict[int, Tuple[Any, bytes]] = {}
        # sent payloads by their pickle: equal sends are one object
        self._payloads: Dict[bytes, Any] = {}
        # (sorted pids, pid -> sorted index, placement key -> its slot's
        # place in the digest's parts), rebuilt with the digest's vectors
        # only if the process set ever changes size (pids are fixed at
        # construction; restores replace values, never keys)
        self._pids: tuple = ((), {}, {})
        # the digest's vectors: the process row last digested at each
        # sorted position, and the hashed parts — those rows' digests,
        # then one placement slot per key for the (network, keying) in
        # _placed, re-encoded where the network recorded a write
        # (Network._touched).  Kept: dfs_strict pass_s -11 % (19/20 pairs)
        self._prows: List[_CompRow] = []
        self._placed: tuple = ()
        self._parts: List[bytes] = []

    def _pid_order(self, processes: Dict[ProcessId, Process]):
        cached = self._pids
        if len(cached[0]) != len(processes):
            order = tuple(sorted(processes))
            cached = self._pids = (
                order,
                {pid: i for i, pid in enumerate(order)},
                {key: n for n, key in enumerate(_slot_keys(order), len(order))},
            )
            self._prows = [_NO_ROW] * len(order)
            self._placed = ()
        return cached

    def _state_rec(self, blob: bytes) -> list:
        """The state table's record for ``blob``, created on first sight."""
        table = self._states
        rec = table.get(blob)
        if rec is None:
            if len(table) >= _STATE_TABLE_CAP:
                table.clear()  # live rows keep their records; a pure cache
            rec = table[blob] = [blob, None, None, None]
            self.counters.states_interned += 1
        return rec

    def _live_rec(self, proc: Process) -> list:
        """The state table's record for ``proc``, pickled afresh."""
        blob = pickle.dumps(proc, PICKLE_PROTOCOL)
        self.counters.cache_misses += 1
        self.counters.components_serialized += 1
        self.counters.bytes_serialized += len(blob)
        return self._state_rec(blob)

    def _row(self, pid: ProcessId, proc: Process) -> _CompRow:
        """Under a journal, the live process's row, made on first sight."""
        row = self._rows.get(pid)
        if row is None or row.obj is not proc:
            row = self._rows[pid] = _CompRow(proc, self._live_rec(proc))
        return row

    def detach(self, processes) -> None:
        """The journal is gone: drop every process row, and unpin each
        live process from its record, so that a forward write changes an
        object no later journaled event will place."""
        for pid, row in self._rows.items():
            pin = row.rec[3]
            if pin is not None and pin() is processes.get(pid):
                row.rec[3] = None
        self._rows.clear()
        self._prows = [_NO_ROW] * len(self._prows)

    def _memo_canon_payload(self, m: Message) -> bytes:
        # payloads are immutable and shared by reference across restores
        # and reused steps, so each is walked once while in flight
        p = m.payload
        memo = self._canon
        e = memo.get(id(p))
        if e is None or e[0] is not p:
            if len(memo) >= _PAYLOAD_MEMO_CAP:
                memo.clear()
            # repro-lint: disable=RL103 — identity-guarded memo; the
            # entry pins p so the id stays valid, hits are checked
            # with `is`, and keys are never ordered or iterated
            e = memo[id(p)] = (p, dumps_canonical(p))
        return e[1]

    def _intern_payload(self, payload: Any) -> Any:
        # equal pickles are one payload to every receiver
        if len(self._payloads) >= _PAYLOAD_MEMO_CAP:
            self._payloads.clear()
        return self._payloads.setdefault(pickle.dumps(payload, PICKLE_PROTOCOL), payload)

    def _place(self, processes, pid: ProcessId, rec: list, *keep: Any) -> None:
        """Put ``rec``'s interned object at ``processes[pid]``, or, if it
        died, a fresh load of the blob, interned instead.  ``keep`` holds
        an undo's object alive until the undo runs."""
        obj = rec[3] and rec[3]()
        if obj is None:
            obj = pickle.loads(rec[0])
            rec[3] = weakref.ref(obj)
        self._ring.append(obj)
        processes[pid] = obj
        self._rows[pid] = _CompRow(obj, rec)

    def _swap(self, processes, pid: ProcessId, journal: list, pre: list, post: list) -> None:
        # the undo puts back pre's interned object (kept alive until it
        # runs if it is the live one), loading pre's blob afresh if none
        # is alive; any other live object, which a caller may hold and
        # write, is never put back
        old = processes[pid]
        keep = (old,) if pre[3] and pre[3]() is old else ()
        journal.append(partial(self._place, processes, pid, pre, *keep))
        self._place(processes, pid, post)

    def reuse(self, processes, pid: ProcessId, journal: list,
              inbox: List[Message], index: int) -> Optional[tuple]:
        """The ``(dst, payload)`` sends of a journaled step seen before
        (same pre-state record and ``inbox``, and the same step index if
        that step read it), its post-state swapped in from the transition
        table; ``None`` for one not seen.  The index-free entry is tried
        first: a step that never read the index took the same path at
        every index (``on_step`` is deterministic in state, context and
        inbox)."""
        pre = self._row(pid, processes[pid]).rec
        key = _step_key(pre, inbox)
        table = self._transitions
        hit = table.get(key) or table.get((key, index))
        if hit is None or hit[0] is not pre:
            return None
        self.counters.steps_reused += 1
        self._swap(processes, pid, journal, pre, hit[2])
        return hit[3]

    def apply(self, processes, pid: ProcessId, journal: list, run: Callable,
              inbox: List[Message] = (), ctx: Optional[StepContext] = None) -> tuple:
        """A journaled event: ``run`` (``on_step`` / ``on_invoke``) runs on
        a copy of ``processes[pid]``, interned as its post-state's object
        and swapped in, and returns the ``(dst, payload)`` sends, interned
        by pickle.  A step (its ``ctx`` given) is recorded for
        :meth:`reuse`: under the pre-state record and inbox if it never
        read ``ctx.step_index``, and under the step index too if it did."""
        pre = self._row(pid, processes[pid]).rec
        obj = pickle.loads(pre[0])
        sends = tuple([(dst, self._intern_payload(p)) for dst, p in run(obj)])
        post = self._live_rec(obj)
        post[3] = weakref.ref(obj)
        if ctx is not None:
            if len(self._transitions) >= _STATE_TABLE_CAP:
                self._transitions.clear()
            key = _step_key(pre, inbox)
            if ctx.index_read:
                key = (key, ctx.step_index)
            self._transitions[key] = (pre, [m.payload for m in inbox], post, sends)
        self._swap(processes, pid, journal, pre, post)
        return sends

    def capture(self, processes, network, msg_counter, event_count) -> Configuration:
        """One interned sub-blob per process plus the network capture:
        from their rows under a journal, else from the live objects."""
        counters = self.counters
        # zero bytes on the ledger: the capture holds the (immutable)
        # messages by reference and serializes nothing
        state = _net_capture(network)
        counters.cache_misses += 1
        counters.components_serialized += 1
        journaled = network._journal is not None
        blobs = []
        for pid, proc in processes.items():
            row = self._rows.get(pid)
            if journaled and row is not None and row.obj is proc:
                counters.cache_hits += 1
                counters.bytes_reused += len(row.rec[0])
                blobs.append((pid, row.rec[0]))
            else:
                rec = self._row(pid, proc).rec if journaled else self._live_rec(proc)
                blobs.append((pid, rec[0]))
        return Configuration(tuple(blobs), state, msg_counter, event_count)

    def load(self, config: Configuration):
        """Fresh live state for ``config``: every process unpickled from
        its sub-blob, the network rebuilt from its capture."""
        counters = self.counters
        processes = {}
        for pid, blob in config.proc_blobs:
            processes[pid] = pickle.loads(blob)
            counters.bytes_restored += len(blob)
        counters.components_restored += len(processes) + 1
        return processes, _net_build(config.net_state)

    def digest(self, processes, network, canonical: bool) -> bytes:
        """``blake2b(per-process digests in sorted-pid order ‖ placement slots)``.

        The sub-blob is only the **cache key** of a process digest:
        digests live in the state table's record for the process's
        interned sub-blob.  Equal blobs unpickle to equal object graphs,
        hence to equal ``__getstate__()``, equal ``fp_state()``
        (required to be a pure function of it) and equal canonical
        dumps, so a hit returns exactly what the walk would compute;
        equal states that pickle differently (set order, sharing
        topology) merely miss and are walked again to the same digest.
        Under a journal a process reaches its record through its row
        (the engine digests a node before it captures it), elsewhere by
        pickling the live object, so :func:`_canonize` runs once per
        distinct process state of a run.

        The placement slots are :func:`placement_slots`, kept for the
        live network and keying: only the slots whose keys the network
        recorded as written since the last digest are re-encoded, and
        all of them when the network, the keying or the pid order
        changed — so the bytes hashed equal the oracle's.
        """
        order, idx, slot_at = self._pid_order(processes)
        i = 2 if canonical else 1
        touched = network._touched
        parts = self._parts
        if touched is None or self._placed != (network, i):
            self._placed = (network, i)
            parts = self._parts = [b""] * len(order) + placement_slots(
                network, idx, canonical, slot_at, self._memo_canon_payload
            )
            network._touched = set()
        elif touched:
            for key, slot in zip(touched, placement_slots(
                network, idx, canonical, touched, self._memo_canon_payload
            )):
                parts[slot_at[key]] = slot
            touched.clear()
        counters = self.counters
        journaled = network._journal is not None
        prows = self._prows
        for n, pid in enumerate(order):
            proc = processes[pid]
            if not journaled:
                rec = self._live_rec(proc)
            else:
                row = prows[n]
                if row.obj is not proc:
                    row = prows[n] = self._row(pid, proc)
                rec = row.rec
            digest = rec[i]
            if digest is None:
                digest = rec[i] = _state_digest(proc, canonical)
                counters.cache_misses += 1
            else:
                counters.cache_hits += 1
            parts[n] = digest
        # digests are fixed-width, process order is fixed (sorted pids)
        # and every slot is self-delimiting: the join needs no framing
        return _digest(b"".join(parts))


class DeepCopySnapshotter:
    """The ``"deepcopy"`` oracle: the same three calls, nothing cached.

    Deep copies at capture and again at restore, and digests the live
    processes *and* the live network afresh on every call — no row, no
    table, no memo — so a cache of :class:`Snapshotter` that served a
    stale entry gives a different digest here, and the mode-equivalence
    tests catch it.
    """

    def capture(self, processes, network, msg_counter, event_count):
        # fork() is the deep copy: the snapshot never aliases the live objects
        return DeepCopyConfiguration(
            processes, network, msg_counter, event_count
        ).fork()

    def load(self, config: DeepCopyConfiguration):
        forked = config.fork()  # the held objects must stay private
        return forked.processes, forked.network

    def digest(self, processes, network, canonical: bool) -> bytes:
        order = sorted(processes)
        idx = {pid: i for i, pid in enumerate(order)}
        digests = [_state_digest(processes[pid], canonical) for pid in order]
        return _digest(b"".join(digests + placement_slots(network, idx, canonical)))
