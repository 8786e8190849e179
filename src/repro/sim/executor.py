"""The execution engine: configurations, steps, deliveries, snapshots.

A :class:`Simulation` owns the processes and the network and applies
events to them.  Its mutable state — process states, in-transit and income
buffers, counters — *is* the configuration in the sense of the paper; the
:meth:`Simulation.snapshot` / :meth:`Simulation.restore` pair implements
``RC(C, α)`` exploration: snapshot a configuration ``C``, run any legal
fragment ``α``, observe, restore, run a different fragment.

Every applied event is appended both to the observational
:class:`~repro.sim.trace.Trace` and to a replayable command log, so that
any fragment can be re-executed (possibly filtered) from a snapshot — the
mechanism behind the paper's indistinguishability splices.
"""

from __future__ import annotations

import copy
import hashlib
import io
import pickle
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from operator import is_
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim.messages import Message, Payload, ProcessId
from repro.sim.network import Network
from repro.sim.process import Process, StepContext
from repro.sim.replay import Command, DeliverCmd, InvokeCmd, ReplayError, StepCmd
from repro.sim.trace import DeliverEvent, InvokeEvent, StepEvent, Trace

#: Snapshots are serialized at pickle protocol 5 (out-of-band-buffer era,
#: the fastest framing available).
PICKLE_PROTOCOL = 5


@dataclass
class SimCounters:
    """Cost accounting for the ``RC(C, α)`` machinery.

    Surfaced by :meth:`repro.core.explore.ExplorationResult.describe` and
    the fork benchmarks so the perf trajectory of the snapshot path stays
    observable across PRs.
    """

    snapshots: int = 0          #: snapshot() calls
    restores: int = 0           #: restore() calls
    fingerprints: int = 0       #: fingerprint() calls
    #: captures and per-state fingerprint digests served from a cache
    #: (dirty rows, the state table) / computed afresh (pickled, walked)
    cache_hits: int = 0
    cache_misses: int = 0
    states_interned: int = 0    #: distinct per-process states (table entries made)
    bytes_serialized: int = 0   #: bytes actually pickled for snapshots
    bytes_reused: int = 0       #: snapshot bytes served from the dirty cache
    bytes_restored: int = 0     #: bytes deserialized by restores
    restore_reuses: int = 0     #: restores that kept every live component
    #: per-component accounting (delta snapshots): sub-blobs pickled by
    #: snapshot(), sub-blobs deserialized by restore(), and live
    #: components a delta restore() kept untouched because their bytes
    #: already matched the snapshot.
    components_serialized: int = 0
    components_restored: int = 0
    components_reused: int = 0
    #: always 0: read by the e2e harness (benchmarks/e2e/run.py), to be
    #: dropped with their ``pool.*`` metrics by the next ``benchmark``
    #: PR (ROADMAP 5a).
    publishes: int = 0
    steals: int = 0
    idle_waits: int = 0
    #: parallel runs (see repro.engine.parallel): shared claim-set
    #: traffic — claims that lost to another worker / claims that won.
    shared_seen_hits: int = 0
    shared_seen_inserts: int = 0
    #: always 0: read by the e2e harness (benchmarks/e2e/run.py), to be
    #: dropped together with its ``sim.codec_fallbacks`` metric by the
    #: next ``benchmark`` PR.
    codec_fallbacks: int = 0

    def describe(self) -> str:
        total = self.bytes_serialized + self.bytes_reused
        pct = 100.0 * self.bytes_reused / total if total else 0.0
        return (
            f"{self.snapshots} snapshots "
            f"({self.components_serialized} components pickled), "
            f"{self.restores} restores "
            f"({self.components_restored} components loaded / "
            f"{self.components_reused} kept), "
            f"{self.fingerprints} fingerprints over "
            f"{self.states_interned} distinct process states; serialization "
            f"cache {self.cache_hits} hits / {self.cache_misses} misses "
            f"({pct:.0f}% of {total} snapshot bytes reused)"
        )

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)

    def merge(self, other: "SimCounters") -> None:
        """Accumulate another ledger into this one (parallel workers)."""
        for key, value in other.__dict__.items():
            setattr(self, key, getattr(self, key) + value)


def _uv(out: bytearray, n: int) -> None:
    """Append one unsigned LEB128 varint (structural payload framing)."""
    while n > 0x7F:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)


def _net_capture(net: Network, prev=None):
    """Snapshot a network as an immutable structural tuple — zero bytes.

    The network's mutable state is pure *placement*: which
    :class:`~repro.sim.messages.Message` sits in which in-transit queue
    or income buffer, plus the per-link send counters.  The messages
    themselves are immutable once sent (the model's "links do not modify
    messages", enforced by lint rule RL404, whose contract already
    shares payloads by reference with the trace) — so a snapshot needs
    no serialization at all: capture the container *shapes* in immutable
    tuples and hold the message objects by reference.  Restoring
    (:func:`_net_build`) rebuilds fresh containers around the same
    messages, which satisfies the Configuration ownership rule the same
    way ``copy.deepcopy`` does when it returns immutables by identity.

    ``prev`` (the previous capture, any branch) enables per-container
    tuple reuse: a queue/buffer whose elements match the previous
    sub-tuple *element-for-element by identity* is exactly the captured
    container, so the sub-tuple is reused — which is what keeps the
    identity-keyed fragment memos downstream (``_net_frag``) hot.  The
    full scan is the only sound check: restores share the pre-fork
    :class:`Message` objects by reference (:func:`_net_build` rebuilds
    containers, not messages), and ``Network.deliver`` removes from
    arbitrary queue positions — so two sibling DFS branches that
    deliver *different* non-last messages out of the same restored
    queue hold containers with equal length and an identical last
    element but different contents.  A shape-plus-last-element guard
    would alias their captures.  The scan is O(n) per container, the
    same order as building the fresh tuple it avoids, and degrades to
    the length check alone on the first mismatch.
    """
    in_transit = net.in_transit
    income = net.income
    if prev is None:
        ptransit = pincome = ()
    else:
        ptransit = prev[1]
        pincome = prev[3]
    npt = len(ptransit)
    transit: List[Any] = []
    i = 0
    for link, q in in_transit.items():
        n = len(q)
        if i < npt:
            pent = ptransit[i]
            tq = pent[1]
            if len(tq) == n and pent[0] == link and all(map(is_, q, tq)):
                transit.append(pent)
                i += 1
                continue
        transit.append((link, tuple(q)))
        i += 1
    npi = len(pincome)
    inc: List[Any] = []
    i = 0
    for pid, v in income.items():
        n = len(v)
        if i < npi:
            pent = pincome[i]
            tv = pent[1]
            if len(tv) == n and pent[0] == pid and all(map(is_, v, tv)):
                inc.append(pent)
                i += 1
                continue
        inc.append((pid, tuple(v)))
        i += 1
    return (
        net.pids,
        tuple(transit),
        tuple(net.link_counts.items()),
        tuple(inc),
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
    net._version = 0
    return net


class Configuration:
    """A component-granular delta snapshot of a configuration.

    One immutable pickle sub-blob per :class:`Process` plus one
    structural capture of the :class:`Network`, each produced (and
    cached) against the component's ``_version`` dirty counter; process
    sub-blobs are additionally *interned* through the simulation's
    state table, so byte-equal states of one run hold one ``bytes``
    object.  Components that did not change between two snapshots
    therefore share the *same* object by reference, which is what makes
    :meth:`Simulation.restore` a **delta apply**: a live component whose
    cached capture *is* the snapshot's is provably in the snapshotted
    state already and is kept as-is; only the components that actually
    differ are re-materialized.  A DFS backtrack after a single ``Step``
    therefore touches one process, not eleven.  A snapshot carries no
    fingerprint data: a restored process finds its digests in the state
    table through its sub-blob (see :meth:`Simulation._proc_fp_digests`).

    The network's capture (:func:`_net_capture`) costs no serialization
    in either direction: its mutable state is message *placement*, and
    the placed messages are immutable once sent (lint rule RL404), so
    snapshots hold them by reference inside immutable tuples and
    restores rebuild fresh containers around them.  The process
    sub-blobs stay pickled bytes — process state is arbitrary mutable
    protocol data, so only a byte-level copy isolates branches.

    **Aliasing contract:** a snapshot must preserve object identity
    *within* a process — protocols may alias one mutable object from two
    fields (``CopsSnowServer`` holds one ``Version`` in ``store`` and in
    ``pending[txid].version`` and flips it visible in place); sharing
    *across* processes is never relied on.  One pickle memo per
    sub-blob gives exactly that: an intra-process alias survives a
    restore, while an object referenced from two processes
    deserializes to two equal copies — harmless, because messages are
    immutable and fingerprints serialize by *value* (identity-blind
    fast-mode pickle, :meth:`Simulation._dumps_canonical`).  A capture
    finer than one process (per field, per cell) would split
    intra-process aliases and silently change verdicts.
    ``snapshot_mode="deepcopy"`` remains the bit-identical oracle.

    **Ownership rule (unchanged):** a Configuration may be restored any
    number of times, and restoring must never hand out mutable state
    aliased with the snapshot.  Sub-blobs are immutable bytes and the
    network capture is immutable tuples over immutable messages; a
    restored component is either a fresh materialization or a live
    component whose capture already equals the snapshot's — mutating it
    afterwards bumps its dirty counter, so later snapshots and restores
    see the divergence.

    :meth:`fork` shares the (immutable) captures, so it stays O(1).
    """

    __slots__ = ("proc_blobs", "net_state", "msg_counter", "event_count")

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

    def materialize(self) -> Tuple[Dict[ProcessId, Process], Network]:
        """Materialize a private (processes, network) pair.

        Each call materializes afresh; mutating the result never touches
        the snapshot (the network's containers are rebuilt, its messages
        are shared but immutable).
        """
        return self.processes, self.network

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
    tests can pin the old contract and the fork benchmark can measure the
    before/after of the bytes-snapshot rework in one process.  Restoring
    one of these must fork first — the held objects would otherwise alias
    live state after a restore.
    """

    processes: Dict[ProcessId, Process]
    network: Network
    msg_counter: int
    event_count: int
    #: lazily computed by :meth:`size_bytes`.  A snapshot's held state
    #: never changes after capture, so the size is computed once — the
    #: old implementation re-pickled the full (processes, network) pair
    #: on *every* call, which made cost reporting itself O(state).
    _size: Optional[int] = None

    def fork(self) -> "DeepCopyConfiguration":
        return DeepCopyConfiguration(
            processes=copy.deepcopy(self.processes),
            network=copy.deepcopy(self.network),
            msg_counter=self.msg_counter,
            event_count=self.event_count,
        )

    def size_bytes(self) -> int:  # parity with Configuration, for benchmarks
        if self._size is None:
            self._size = len(
                pickle.dumps((self.processes, self.network), PICKLE_PROTOCOL)
            )
        return self._size


#: the two snapshot implementations: "bytes" (component-granular delta
#: snapshots, the default) and "deepcopy" (the reference oracle).
SNAPSHOT_MODES = ("bytes", "deepcopy")


@contextmanager
def use_snapshot_mode(mode: str):
    """Force every new snapshot into one of :data:`SNAPSHOT_MODES`.

    Benchmark/test helper; flips the class-level default and restores it.
    """
    if mode not in SNAPSHOT_MODES:
        raise ValueError(f"unknown snapshot mode {mode!r}")
    old = Simulation.snapshot_mode
    Simulation.snapshot_mode = mode
    try:
        yield
    finally:
        Simulation.snapshot_mode = old


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


def _canonize(obj: Any, memo: Optional[Dict[int, Any]] = None) -> Any:
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

    ``memo`` is a per-call memo for the set-element sort keys, keyed by
    the *original* element's id (each entry holds the element strongly,
    so ids stay stable for the duration of the call): a vector-clock
    entry shared by several sets in one state is canonized and dumped
    once per pass instead of once per set that contains it.
    """
    t = type(obj)
    if t in _ATOMIC_TYPES:
        return obj
    if t is tuple:
        return tuple(_canonize(x, memo) for x in obj)
    if t is list:
        return [_canonize(x, memo) for x in obj]
    if t is dict:
        return {_canonize(k, memo): _canonize(v, memo) for k, v in obj.items()}
    if t is set or t is frozenset:
        if memo is None:
            memo = {}
        entries = []
        for x in obj:
            ent = memo.get(id(x))
            if ent is None or ent[0] is not x:
                cx = _canonize(x, memo)
                ent = (x, _fast_dumps(cx), cx)
                # repro-lint: disable=RL103 — per-call memo; the entry
                # pins x so the id stays valid, and hits are guarded
                # with `is`; keys are never ordered or iterated
                memo[id(x)] = ent
            entries.append(ent)
        entries.sort(key=lambda e: e[1])
        return (_SetMark, t is frozenset, [e[2] for e in entries])
    if t is deque:
        state = (obj.maxlen, list(obj))
    else:
        state = obj.__getstate__()
        if state is None and hasattr(t, "__iter__"):
            raise TypeError(
                f"cannot fingerprint {t.__module__}.{t.__qualname__}: an "
                "iterable whose __getstate__() is None hides its contents"
            )
    return (_ObjMark, t.__module__, t.__qualname__, _canonize(state, memo))


class _CompRow:
    """One component's dirty-tracked captures, all in one place.

    A row is valid while the live component *is* ``obj`` at dirty
    version ``version``; every mutation of the component goes through
    an event (which bumps the counter), so validity is two identity/int
    comparisons.  ``rec`` is the mutable record ``[capture, fp,
    fp_canon]``, filled lazily.  For a process row it is the *state
    table's* entry for the process's sub-blob — ``pickle.dumps(obj)``
    interned, plus the 16-byte digests of the canonical dumps of
    ``__getstate__()`` and ``fp_state()`` — shared by every row, past or
    future, whose process pickles to the same bytes.  The network row
    owns a private record: the structural :func:`_net_capture` tuple
    and the strict / trace-canonical placement payloads.
    """

    __slots__ = ("obj", "version", "rec")

    def __init__(self, obj: Any, version: int, rec: Optional[list] = None):
        self.obj = obj
        self.version = version
        self.rec = rec


#: cache key for the network's component row (process rows key on pid)
_NET = "\x00network"

#: eviction cap for the identity-keyed fragment memo.  Entries pin
#: their key objects alive (that is what keeps the ``id`` keys valid),
#: and messages are re-minted on every post-restore re-execution — so an
#: unbounded memo grows with *total events executed*, not with live
#: state.  On overflow the memo is simply cleared: it is a pure cache,
#: so the only cost is re-encoding a few live entries on the next pass.
_NET_FRAG_CAP = 8192

#: caps for the two content memos, cleared on overflow like the fragment
#: memo: the state table (sub-blob → record; the distinct process
#: states of one exploration number in the hundreds) and the
#: canonical-payload memo (identity-keyed on in-flight messages, which
#: post-restore re-execution re-mints, so it turns over quickly)
_STATE_TABLE_CAP = 4096
_MSG_MEMO_CAP = 1024


#: ``(sorted pids, pid → sorted index, pid → its neighbours)``
_PidCache = Tuple[
    Tuple[ProcessId, ...], Dict[ProcessId, int], Dict[ProcessId, frozenset]
]


def _digest(dump: bytes) -> bytes:
    return hashlib.blake2b(dump, digest_size=16).digest()


class Simulation:
    """A running instance of the system."""

    #: one of :data:`SNAPSHOT_MODES`; class attribute, overridable per
    #: instance.  "bytes" is the component-granular delta path.
    snapshot_mode = "bytes"

    def __init__(self, processes: Sequence[Process]):
        self.processes: Dict[ProcessId, Process] = {}
        for p in processes:
            if p.pid in self.processes:
                raise ValueError(f"duplicate pid {p.pid}")
            self.processes[p.pid] = p
        self.network = Network(self.processes.keys())
        self.trace = Trace()
        self.log: List[Command] = []
        self._msg_counter = 0
        self.event_count = 0
        self.counters = SimCounters()
        # per-component dirty-tracked capture rows, keyed by pid / _NET;
        # see _CompRow.  Rows hold the component strongly, so object ids
        # cannot be recycled into false hits.
        self._comp_rows: Dict[str, _CompRow] = {}
        # the state table: process sub-blob -> [interned sub-blob, fp
        # digest, fp_canon digest].  Content-addressed, so a per-process
        # state is walked by _canonize once per run, not once per visit;
        # bounded by _STATE_TABLE_CAP (cleared on overflow)
        self._states: Dict[bytes, list] = {}
        # sorted pid order + index map (used by every fingerprint) and
        # each pid's neighbour set (handed to every step's context),
        # rebuilt only if the process set ever changes size (pids are
        # fixed at construction; restores replace values, never keys)
        self._pid_cache: Optional[_PidCache] = None
        # the most recent network capture (any branch) — seeds the
        # per-container tuple reuse inside :func:`_net_capture`
        self._net_prev = None
        # per-container structural-payload fragments, keyed by capture
        # sub-tuple identity (the guard value keeps the tuple alive);
        # bounded by _NET_FRAG_CAP (cleared on overflow)
        self._net_frag: Dict[int, Tuple[Any, bytes]] = {}
        # canonical payload bytes of in-flight messages, keyed by
        # message identity (the guard value keeps the message alive);
        # bounded by _MSG_MEMO_CAP (cleared on overflow)
        self._msg_canon: Dict[int, Tuple[Message, bytes]] = {}

    # -- configuration management -----------------------------------------

    def _pid_order(self) -> _PidCache:
        """``(sorted pids, pid → sorted index, pid → neighbours)``, cached."""
        cached = self._pid_cache
        if cached is None or len(cached[0]) != len(self.processes):
            order = tuple(sorted(self.processes))
            everyone = frozenset(order)
            cached = (
                order,
                {pid: i for i, pid in enumerate(order)},
                {pid: everyone - {pid} for pid in order},
            )
            self._pid_cache = cached
        return cached

    def _row(self, key: str, obj: Any) -> _CompRow:
        """The component's cache row, invalidated on identity/version drift."""
        version = getattr(obj, "_version", 0)
        row = self._comp_rows.get(key)
        if row is None or row.obj is not obj or row.version != version:
            row = _CompRow(obj, version)
            self._comp_rows[key] = row
        return row

    def _state_rec(self, blob: bytes) -> list:
        """The state table's record for ``blob``, created on first sight."""
        table = self._states
        rec = table.get(blob)
        if rec is None:
            if len(table) >= _STATE_TABLE_CAP:
                table.clear()  # live rows keep their records; a pure cache
            rec = table[blob] = [blob, None, None]
            self.counters.states_interned += 1
        return rec

    def _comp_blob(self, row: _CompRow) -> bytes:
        """The process's interned snapshot sub-blob, pickled at most once."""
        rec = row.rec
        if rec is None:
            blob = pickle.dumps(row.obj, PICKLE_PROTOCOL)
            rec = row.rec = self._state_rec(blob)
            self.counters.cache_misses += 1
            self.counters.components_serialized += 1
            self.counters.bytes_serialized += len(blob)
        else:
            self.counters.cache_hits += 1
            self.counters.bytes_reused += len(rec[0])
        return rec[0]

    def _net_snapshot_state(self):
        """The network's structural capture, built at most once per version.

        Contributes zero to the byte ledger: :func:`_net_capture` holds
        the (immutable) messages by reference and serializes nothing.
        """
        row = self._row(_NET, self.network)
        rec = row.rec
        if rec is None:
            state = _net_capture(self.network, self._net_prev)
            self._net_prev = state
            rec = row.rec = [state, None, None]
            self.counters.cache_misses += 1
            self.counters.components_serialized += 1
        else:
            self.counters.cache_hits += 1
        return rec[0]

    def snapshot(self):
        """Capture the current configuration.

        In the default ``"bytes"`` mode the snapshot is one pickle
        sub-blob (protocol 5) per process plus one zero-copy structural
        capture of the network, each served from the per-component dirty
        cache: after one event, only the touched components are
        captured, every clean capture is shared by reference with the
        previous snapshot.  ``"deepcopy"`` deep copies the live objects.
        """
        self.counters.snapshots += 1
        if self.snapshot_mode == "deepcopy":
            return DeepCopyConfiguration(
                processes=copy.deepcopy(self.processes),
                network=copy.deepcopy(self.network),
                msg_counter=self._msg_counter,
                event_count=self.event_count,
            )
        return Configuration(
            proc_blobs=tuple(
                (pid, self._comp_blob(self._row(pid, proc)))
                for pid, proc in self.processes.items()
            ),
            net_state=self._net_snapshot_state(),
            msg_counter=self._msg_counter,
            event_count=self.event_count,
        )

    def restore(self, config) -> None:
        """Return to a previously captured configuration.

        A configuration may be restored any number of times; restoring
        never aliases live state (the :class:`Configuration` ownership
        rule).  Bytes snapshots get this for free — restored components
        are materialized fresh from immutable sub-blobs — so no
        defensive copy is made.  Component-granular snapshots restore as
        a **delta apply**: a live component whose cached serialization
        *is* the snapshot's sub-blob (same object, same dirty version,
        same bytes object) is already in the snapshotted state and is
        kept; only the components that differ are re-deserialized.
        Deep-copy snapshots must still fork once to stay private.
        Anything that is not one of the two snapshot classes is refused
        with :class:`TypeError` before any live state is touched.

        The trace and the command log are observational and are *not*
        rewound; use their ``mark``/cursor mechanisms to slice branches.
        """
        if isinstance(config, Configuration):
            self._restore_delta(config)
        elif isinstance(config, DeepCopyConfiguration):
            forked = config.fork()
            self.processes = forked.processes
            self.network = forked.network
            self._comp_rows = {}
            self._net_prev = None
        else:
            raise TypeError(
                f"cannot restore a {type(config).__name__}: expected a "
                "Configuration or DeepCopyConfiguration from snapshot()"
            )
        self.counters.restores += 1
        self._msg_counter = config.msg_counter
        self.event_count = config.event_count

    def _restore_delta(self, config: Configuration) -> None:
        """Apply only the components that differ from the snapshot."""
        counters = self.counters
        rows = self._comp_rows
        new_procs: Dict[ProcessId, Process] = {}
        changed = 0
        for pid, blob in config.proc_blobs:
            live = self.processes.get(pid)
            row = rows.get(pid)
            if (
                row is not None
                and live is not None
                and row.obj is live
                and row.version == getattr(live, "_version", 0)
                and row.rec is not None
                and row.rec[0] is blob
            ):
                # the live process's exact serialization *is* this
                # sub-blob (interned: also after a step that left its
                # state byte-equal): it already equals the snapshot
                counters.components_reused += 1
                proc = live
            else:
                proc = pickle.loads(blob)
                # the state table hands the row the digests this state
                # was fingerprinted with, wherever that happened, so a
                # branch off this restore only walks states never seen
                rows[pid] = _CompRow(proc, 0, self._state_rec(blob))
                counters.components_restored += 1
                counters.bytes_restored += len(blob)
                changed += 1
            new_procs[pid] = proc
        net = self.network
        row = rows.get(_NET)
        if (
            row is not None
            and row.obj is net
            and row.version == getattr(net, "_version", 0)
            and row.rec is not None
            and row.rec[0] is config.net_state
        ):
            counters.components_reused += 1
        else:
            net = _net_build(config.net_state)
            rows[_NET] = _CompRow(net, 0, [config.net_state, None, None])
            counters.components_restored += 1
            self.network = net
            changed += 1
        # the snapshot's capture describes the network's exact state now,
        # so it is the right (same-lineage) seed for the next capture's
        # per-container reuse scan
        self._net_prev = config.net_state
        if changed == 0:
            counters.restore_reuses += 1
        if changed or len(new_procs) != len(self.processes):
            self.processes = new_procs

    def _structural_payload_strict(self, state) -> bytes:
        """The network's message placement as canonical bytes (strict).

        Built from the network's structural capture ``state`` so the
        per-link and per-buffer fragments can be memoized by tuple identity — the
        capture delta (:func:`_net_capture`) reuses the sub-tuple of
        every untouched container, so one event re-encodes one or two
        fragments.  Each fragment is a self-delimiting varint run
        (``src dst n msg_id…`` for links, ``pid n msg_id…`` for income
        buffers); the payload is the two fragment lists sorted by bytes,
        each with a count prefix.  That framing is uniquely decodable,
        so two configurations produce the same payload **iff** their
        placements are equal — the same partition the pickled-tuple
        payload induced.  The link indices are load-bearing: a
        position-only encoding would collide states where the same
        ``msg_id`` sits on *different* links.
        """
        idx = self._pid_order()[1]
        frag = self._net_frag
        if len(frag) >= _NET_FRAG_CAP:
            frag.clear()
        tfrags: List[bytes] = []
        for ent in state[1]:
            e = frag.get(id(ent))
            if e is not None and e[0] is ent:
                tfrags.append(e[1])
                continue
            (s, d), q = ent
            out = bytearray()
            push = out.append
            a = idx[s]
            b = idx[d]
            push(a) if a < 0x80 else _uv(out, a)
            push(b) if b < 0x80 else _uv(out, b)
            n = len(q)
            push(n) if n < 0x80 else _uv(out, n)
            for m in q:
                mid = m.msg_id
                push(mid) if mid < 0x80 else _uv(out, mid)
            eb = bytes(out)
            # repro-lint: disable=RL103 — fragment memo; the entry pins
            # ent so the id stays valid, hits are guarded with `is`,
            # and the fragments are sorted by content below
            frag[id(ent)] = (ent, eb)
            tfrags.append(eb)
        ifrags: List[bytes] = []
        for ent in state[3]:
            e = frag.get(id(ent))
            if e is not None and e[0] is ent:
                ifrags.append(e[1])
                continue
            pid, msgs = ent
            out = bytearray()
            push = out.append
            a = idx[pid]
            push(a) if a < 0x80 else _uv(out, a)
            n = len(msgs)
            push(n) if n < 0x80 else _uv(out, n)
            for m in msgs:
                mid = m.msg_id
                push(mid) if mid < 0x80 else _uv(out, mid)
            eb = bytes(out)
            # repro-lint: disable=RL103 — same identity-guarded memo as
            # the transit fragments above
            frag[id(ent)] = (ent, eb)
            ifrags.append(eb)
        tfrags.sort()
        ifrags.sort()
        pre1 = bytearray()
        _uv(pre1, len(tfrags))
        pre2 = bytearray()
        _uv(pre2, len(ifrags))
        return bytes(pre1) + b"".join(tfrags) + bytes(pre2) + b"".join(ifrags)

    def _structural_trace_canonical(self):
        """Message placement *and contents* up to commutation (POR).

        Blind to global ``msg_id``s: in-transit messages are identified
        by their per-link ``link_seq`` (queue order on one link is always
        send order, so the tuple is canonical), and income batches are
        the *sorted set* of ``(src, link_seq)`` entries — sound because
        :meth:`Network.drain_income` presents every batch in that
        canonical order, making a step's behaviour a function of the
        batch set.  Two configurations reached by commuting independent
        events (different-process steps mint different ``msg_id``s;
        same-process deliveries permute a batch) therefore collide here,
        which is what lets the engine keep one representative per
        Mazurkiewicz trace.  Empty queues and buffers are dropped: a
        link that emptied is the same as one never used.

        Unlike the strict placement this one must carry each message's
        **payload**: without the globally-sequenced ``msg_id`` (whose
        numbering encodes the whole minting order), ``(src, link_seq)``
        alone no longer determines what the message says — two branches
        can produce the same skeleton with different replies in flight.
        """
        net = self.network
        idx = self._pid_order()[1]
        memo = self._msg_canon

        def canon(m: Message) -> bytes:
            # messages are immutable and shared by reference across
            # restores, so each payload is walked once while in flight
            e = memo.get(id(m))
            if e is None or e[0] is not m:
                if len(memo) >= _MSG_MEMO_CAP:
                    memo.clear()
                # repro-lint: disable=RL103 — identity-guarded memo; the
                # entry pins m so the id stays valid, hits are checked
                # with `is`, and keys are never ordered or iterated
                e = memo[id(m)] = (m, _fast_dumps(_canonize(m.payload)))
            return e[1]

        return (
            tuple(
                sorted(
                    (
                        (idx[src], idx[dst]),
                        tuple((m.link_seq, canon(m)) for m in q),
                    )
                    for (src, dst), q in net.in_transit.items()
                    if q
                )
            ),
            tuple(
                sorted(
                    (
                        idx[pid],
                        tuple(
                            sorted(
                                (idx[m.src], m.link_seq, canon(m))
                                for m in msgs
                            )
                        ),
                    )
                    for pid, msgs in net.income.items()
                    if msgs
                )
            ),
        )

    @staticmethod
    def _dumps_canonical(obj: Any) -> bytes:
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
        ``reducer_override``, so set order cannot be intercepted there,
        and fast mode cannot handle cyclic state — protocol state here
        is plain acyclic data.)
        """
        return _fast_dumps(_canonize(obj, {}))

    def _proc_fp_digests(self, canonical: bool = False) -> List[bytes]:
        """Per-process state digests in sorted-pid order, for :meth:`fingerprint`.

        A process's digest is the 16-byte blake2b of
        :meth:`_dumps_canonical` of its state — deliberately a
        *different* serialization than the snapshot's sub-blobs, whose
        pickle memo encodes object-sharing topology (a strictly finer
        relation than the value equality the exploration engine has
        always pruned with).  ``canonical=True`` digests
        :meth:`Process.fp_state` instead of the raw snapshot state, so
        data the process never branches on (a client's event-counter
        stamps) is masked out of the trace-canonical fingerprint.

        The sub-blob is only the **cache key**: digests live in the
        state table's record for the process's interned sub-blob.  Equal
        blobs unpickle to equal object graphs, hence to equal
        ``__getstate__()``, equal ``fp_state()`` (required to be a pure
        function of it) and equal canonical dumps, so a hit returns
        exactly what the walk would compute; equal states that pickle
        differently (set order, sharing topology) merely miss and are
        walked again to the same digest.  A row reaches its record by
        pickling (:meth:`_comp_blob` — the node's snapshot already did)
        or by a restore, so :func:`_canonize` runs once per distinct
        process state of a run.  The ``"deepcopy"`` oracle never
        consults the table: it digests a fresh dump on every call.
        """
        def walk(proc: Process) -> bytes:
            state = proc.fp_state() if canonical else proc.__getstate__()
            return _digest(self._dumps_canonical(state))

        order = self._pid_order()[0]
        procs = self.processes
        if self.snapshot_mode == "deepcopy":
            return [walk(procs[pid]) for pid in order]
        i = 2 if canonical else 1
        counters = self.counters
        out: List[bytes] = []
        for pid in order:
            proc = procs[pid]
            row = self._row(pid, proc)
            if row.rec is None:
                self._comp_blob(row)
            rec = row.rec
            digest = rec[i]
            if digest is None:
                digest = rec[i] = walk(proc)
                counters.cache_misses += 1
            else:
                counters.cache_hits += 1
            out.append(digest)
        return out

    def fingerprint(
        self,
        config: Optional["Configuration"] = None,
        canonical: bool = False,
    ) -> bytes:
        """A content hash of the current configuration, for revisit pruning.

        Covers every process's state plus the structural placement of
        in-transit and income messages; deliberately *excludes* the event
        and message counters (and the dirty counters), so configurations
        reached by different interleavings of the same events collide.
        Pickle is stable here because all process state is plain Python
        data and the simulation is deterministic.

        ``canonical=True`` hashes the *trace-canonical* placement instead
        (:meth:`_structural_trace_canonical`): blind to global ``msg_id``
        numbering and to intra-batch income order, so configurations that
        differ only by a permutation of independent events collide.  The
        exploration engine uses it for partial-order reduction; the
        default (strict) placement keeps the pre-engine explorer's
        partition.

        The hash is ``blake2b(per-process digests in sorted-pid order ‖
        network payload)``, always computed from the live state — see
        :meth:`_proc_fp_digests` for why the snapshot's sub-blobs would
        hash a finer relation and serve only as cache keys.  ``config``
        is accepted for the one-snapshot-per-node call pattern and
        ignored.
        """
        self.counters.fingerprints += 1
        # the structural payload is a pure function of the network state,
        # so it caches in the network row's record
        row = self._row(_NET, self.network)
        if row.rec is None:
            self._net_snapshot_state()
        rec = row.rec
        i = 2 if canonical else 1
        payload = rec[i]
        if payload is None:
            if canonical:
                # the canonical structure embeds message payloads
                # (arbitrary values), so it needs the
                # identity-independent serializer
                payload = _fast_dumps(self._structural_trace_canonical())
            else:
                payload = self._structural_payload_strict(rec[0])
            rec[i] = payload
        # digests are fixed-width and process order is fixed (sorted
        # pids), so the concatenation needs no framing
        return _digest(b"".join(self._proc_fp_digests(canonical)) + payload)

    # -- events -------------------------------------------------------------

    def step(self, pid: ProcessId) -> StepEvent:
        """Apply a computation step of ``pid``."""
        proc = self.processes[pid]
        inbox = self.network.drain_income(pid)
        self.event_count += 1
        ctx = StepContext(pid, self._pid_order()[2][pid], self.event_count)
        proc.on_step(ctx, inbox)
        proc.mark_dirty()
        # the network is NOT marked dirty here: its own mutators (post,
        # deliver, drain_income) bump its version, and messages are
        # immutable once sent (the model's "links do not modify
        # messages", enforced by the RL4xx lint rules) — so a step that
        # neither received nor sent leaves the network's serialization
        # valid, and a delta restore after it touches one process only
        sent: List[Message] = []
        for dst, payload in ctx._sends.items():
            msg = Message(
                msg_id=self._msg_counter,
                src=pid,
                dst=dst,
                link_seq=self.network.next_link_seq(pid, dst),
                payload=payload,
            )
            self._msg_counter += 1
            self.network.post(msg)
            sent.append(msg)
        event = StepEvent(
            index=len(self.trace), pid=pid, received=tuple(inbox), sent=tuple(sent)
        )
        self.trace.append(event)
        self.log.append(StepCmd(pid))
        return event

    def deliver(
        self, src: ProcessId, dst: ProcessId, link_seq: Optional[int] = None
    ) -> Message:
        """Apply a delivery event; default: oldest in-transit on the link."""
        if link_seq is None:
            q = self.network.in_transit.get((src, dst))
            if not q:
                raise ReplayError(f"no in-transit message on link {src}->{dst}")
            link_seq = q[0].link_seq
        try:
            msg = self.network.deliver(src, dst, link_seq)
        except KeyError as exc:
            raise ReplayError(str(exc)) from exc
        self.event_count += 1
        self.trace.append(DeliverEvent(index=len(self.trace), message=msg))
        self.log.append(DeliverCmd(src, dst, link_seq))
        return msg

    def deliver_msg(self, msg: Message) -> Message:
        return self.deliver(msg.src, msg.dst, msg.link_seq)

    def invoke(self, pid: ProcessId, txn: Any) -> None:
        """Hand a transaction invocation to client ``pid``."""
        proc = self.processes[pid]
        on_invoke = getattr(proc, "on_invoke", None)
        if on_invoke is None:
            raise TypeError(f"{pid} does not accept invocations")
        on_invoke(txn)
        proc.mark_dirty()
        self.trace.append(InvokeEvent(index=len(self.trace), pid=pid, txn=txn))
        self.log.append(InvokeCmd(pid, txn))

    # -- replay ---------------------------------------------------------------

    def apply(self, cmd: Command) -> None:
        if isinstance(cmd, StepCmd):
            self.step(cmd.pid)
        elif isinstance(cmd, DeliverCmd):
            self.deliver(cmd.src, cmd.dst, cmd.link_seq)
        elif isinstance(cmd, InvokeCmd):
            self.invoke(cmd.pid, cmd.txn)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown command {cmd!r}")

    def replay(self, commands: Iterable[Command], strict: bool = True) -> List[Command]:
        """Apply a recorded (possibly filtered) command list.

        With ``strict`` (the default) a delivery of a message that does not
        exist raises :class:`ReplayError`.  With ``strict=False`` such
        deliveries are skipped and the list of skipped commands returned —
        used by diagnostics, never by the proof engine.
        """
        skipped: List[Command] = []
        for cmd in commands:
            try:
                self.apply(cmd)
            except ReplayError:
                if strict:
                    raise
                skipped.append(cmd)
        return skipped

    # -- queries ---------------------------------------------------------------

    def pids(self) -> Tuple[ProcessId, ...]:
        return tuple(self.processes)

    def quiescent(self, pids: Optional[Iterable[ProcessId]] = None) -> bool:
        """No in-transit or undelivered messages; no (selected) process busy."""
        if not self.network.idle():
            return False
        group = self.processes.values() if pids is None else (
            self.processes[p] for p in pids
        )
        return not any(p.wants_step() for p in group)

    def log_mark(self) -> int:
        return len(self.log)

    def log_since(self, mark: int) -> List[Command]:
        return self.log[mark:]
