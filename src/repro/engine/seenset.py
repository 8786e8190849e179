"""A cross-process seen-set of canonical fingerprints, claim-once.

The parallel frontier (:mod:`repro.engine.parallel`) lets every worker
consult one *global* dedup set before expanding a configuration,
instead of each worker re-expanding fingerprints its siblings already
covered.  The set stores the engine's 16-byte
:meth:`~repro.sim.executor.Simulation.fingerprint` digests and supports
exactly one operation:

``claim(fp) -> bool``
    Atomically insert-if-absent.  ``True`` means the caller now *owns*
    the fingerprint (it is the one worker that expands it); ``False``
    means some claimer — possibly in another process — got there first
    (the caller records a dedup and prunes).  The claim is the whole
    protocol: there is no separate lookup, so the check and the insert
    cannot race apart.

:class:`SharedSeenSet` is an open-addressing hash table in one
:class:`multiprocessing.shared_memory.SharedMemory` segment.  Slots are
write-once (16 zero bytes = empty; a slot once written never changes),
probing is linear from ``fp[:8] mod slots``, and claims are serialized
per table *region* by a small array of striped locks: a claimer holds
only the lock of the region its probe is currently in, so two claims
contend only when their probes overlap the same region.  Plain reads of
shared memory without barriers are not safely ordered in Python, so
there is deliberately **no** lock-free read fast path — the region lock
is a single semaphore acquire (~1µs) against search steps that cost
hundreds of µs.

The table is sized at twice the caller's population bound and never
grows; a claim that finds it full raises :class:`SeenSetFull` rather
than guess.  It is picklable: sending it to a worker process
re-attaches to the same segment, so the parent constructs the set once
and ships it in the worker's arguments.

A fingerprint in this set means "some worker expanded this
configuration" — pool searches run without sleep sets, so every visit
explores every outgoing event and its coverage is universal; see
``docs/model.md``.
"""

from __future__ import annotations

import multiprocessing
from typing import List, Tuple

#: fingerprint width: blake2b(digest_size=16) everywhere in the repo
FP_BYTES = 16

#: the all-zeroes digest doubles as the empty-slot marker; the (one)
#: real fingerprint equal to it is tracked by a dedicated header byte
_ZERO_FP = b"\x00" * FP_BYTES

#: number of striped region locks in a SharedSeenSet
_N_LOCKS = 64


class SeenSetFull(RuntimeError):
    """A claim found no free slot: the population outgrew the table."""


def _attach_shm(name: str):
    """Attach to an existing segment without re-registering it for
    unlink (the creator owns the segment's lifetime; a worker attach
    that also registered it would double-unlink at exit)."""
    from multiprocessing import shared_memory

    try:  # Python >= 3.13
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        shm = shared_memory.SharedMemory(name=name)
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker internals moved
            pass
        return shm


class SharedSeenSet:
    """Write-once open-addressing claim set in shared memory.

    Layout: one header byte (the claim bit for the all-zeroes
    fingerprint) followed by ``slots`` fixed 16-byte slots.  A slot is
    empty while all-zero and is written exactly once, under the lock of
    the table region it belongs to; claimers hold one region lock at a
    time and re-acquire as their probe crosses regions, so claims of
    the same fingerprint are serialized at the slot that decides them.

    ``hits``/``inserts`` are *local* tallies of this
    process's claims (each worker folds its own into its result); the
    table itself holds no counters, so no shared cacheline is bumped on
    every claim.
    """

    def __init__(self, capacity_hint: int, *, ctx=None):
        if ctx is None:
            ctx = multiprocessing.get_context()
        slots = 1024
        while slots < 2 * max(capacity_hint, 1):
            slots *= 2
        from multiprocessing import shared_memory

        self.slots = slots
        self.shm = shared_memory.SharedMemory(
            create=True, size=1 + slots * FP_BYTES
        )
        self.shm.buf[: 1 + slots * FP_BYTES] = bytes(1 + slots * FP_BYTES)
        self.locks: List = [ctx.Lock() for _ in range(_N_LOCKS)]
        self._owner = True
        self.hits = 0
        self.inserts = 0

    # -- pickling: workers re-attach to the same segment -------------------

    def __getstate__(self):
        return (self.shm.name, self.slots, self.locks)

    def __setstate__(self, state):
        name, slots, locks = state
        self.slots = slots
        self.locks = locks
        self.shm = _attach_shm(name)
        self._owner = False
        self.hits = 0
        self.inserts = 0

    # -- the claim protocol ------------------------------------------------

    def _region(self, slot: int) -> int:
        return (slot * _N_LOCKS) // self.slots

    def _probe(self, fp: bytes, insert: bool) -> str:
        """Walk the probe sequence under the striped locks.

        Returns ``"present"`` / ``"inserted"`` / ``"absent"`` /
        ``"full"``.  Hand-over-hand locking with a held-flag: the flag
        is cleared *before* the old lock is released and set again only
        after the next lock is acquired, so the ``finally`` releases
        exactly the lock this frame holds — an exception anywhere in
        the swap window can leak a lock at worst, never release one
        that another claimer holds (which would corrupt the semaphore
        count for every process sharing the table).
        """
        slots = self.slots
        slot = int.from_bytes(fp[:8], "little") % slots
        region = self._region(slot)
        lock = self.locks[region]
        held = False
        try:
            lock.acquire()
            held = True
            for _ in range(slots):
                r = self._region(slot)
                if r != region:
                    # probe crossed into the next region: swap locks
                    held = False
                    lock.release()
                    region, lock = r, self.locks[r]
                    lock.acquire()
                    held = True
                off = 1 + slot * FP_BYTES
                cur = bytes(self.shm.buf[off : off + FP_BYTES])
                if cur == fp:
                    return "present"
                if cur == _ZERO_FP:
                    if insert:
                        self.shm.buf[off : off + FP_BYTES] = fp
                        return "inserted"
                    return "absent"
                slot = (slot + 1) % slots
            return "full"
        finally:
            if held:
                lock.release()

    def claim(self, fp: bytes) -> bool:
        """Insert-if-absent; True iff this call inserted ``fp``.

        Raises :class:`SeenSetFull` when the table has no free slot —
        answering "claimed" would expand without dedup and answering
        "present" would prune an unexplored class, a plausible wrong
        count either way.
        """
        if len(fp) != FP_BYTES:
            raise ValueError(f"fingerprint must be {FP_BYTES} bytes")
        if fp == _ZERO_FP:
            # the header byte, guarded by region-0's lock
            with self.locks[0]:
                if self.shm.buf[0]:
                    self.hits += 1
                    return False
                self.shm.buf[0] = 1
                self.inserts += 1
                return True
        outcome = self._probe(fp, insert=True)
        if outcome == "present":
            self.hits += 1
            return False
        if outcome == "full":
            raise SeenSetFull(
                f"claim table full ({self.slots} slots): the fingerprint "
                "population exceeded twice the capacity hint"
            )
        self.inserts += 1
        return True

    def __contains__(self, fp: bytes) -> bool:
        """Membership without claiming: a read-only locked probe.

        Never writes the table and never perturbs the tallies, so it is
        safe to call concurrently with claimers in other processes.
        """
        if len(fp) != FP_BYTES:
            raise ValueError(f"fingerprint must be {FP_BYTES} bytes")
        if fp == _ZERO_FP:
            with self.locks[0]:
                return bool(self.shm.buf[0])
        return self._probe(fp, insert=False) == "present"

    def stats(self) -> Tuple[int, int]:
        return (self.hits, self.inserts)

    def close(self) -> None:
        try:
            self.shm.close()
        except Exception:  # pragma: no cover - double close
            pass

    def unlink(self) -> None:
        """Free the segment (creator only, after workers exited)."""
        self.close()
        if self._owner:
            try:
                self.shm.unlink()
            except Exception:  # pragma: no cover - already gone
                pass
