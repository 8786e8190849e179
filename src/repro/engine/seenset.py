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
probing is linear from ``fp[:8] mod slots``, and each claim — the
header-byte path and the whole probe — is one ``with self.lock:``
block on the table's one lock.  Plain reads of shared memory without
barriers are not safely ordered in Python, so there is deliberately
**no** lock-free read fast path — the lock is a single semaphore
acquire (~1µs) against search steps that cost hundreds of µs, and a
probe in a table kept at most half full is a few slots long.

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

#: fingerprint width: blake2b(digest_size=16) everywhere in the repo
FP_BYTES = 16

#: the all-zeroes digest doubles as the empty-slot marker; the (one)
#: real fingerprint equal to it is tracked by a dedicated header byte
_ZERO_FP = b"\x00" * FP_BYTES


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
    empty while all-zero and is written exactly once.  Every claim is
    one critical section under the table's one lock, so claims of the
    same fingerprint are serialized whole.  The table keeps no
    counters: :class:`~repro.engine.core.SerialSearch` books each
    claim's outcome into its own ``SimCounters``.
    """

    def __init__(self, capacity_hint: int, *, ctx=None):
        if ctx is None:
            ctx = multiprocessing.get_context()
        slots = 1024
        while slots < 2 * max(capacity_hint, 1):
            slots *= 2
        from multiprocessing import shared_memory

        self.slots = slots
        # a new segment reads as zeroes (POSIX ftruncate): every slot
        # starts empty and the header byte unclaimed
        self.shm = shared_memory.SharedMemory(
            create=True, size=1 + slots * FP_BYTES
        )
        self.lock = ctx.Lock()
        self._owner = True

    # -- pickling: workers re-attach to the same segment -------------------

    def __getstate__(self):
        return (self.shm.name, self.slots, self.lock)

    def __setstate__(self, state):
        name, self.slots, self.lock = state
        self.shm = _attach_shm(name)
        self._owner = False

    # -- the claim protocol ------------------------------------------------

    def claim(self, fp: bytes) -> bool:
        """Insert-if-absent; True iff this call inserted ``fp``.

        Raises :class:`SeenSetFull` when the table has no free slot —
        answering "claimed" would expand without dedup and answering
        "present" would prune an unexplored class, a plausible wrong
        count either way.
        """
        if len(fp) != FP_BYTES:
            raise ValueError(f"fingerprint must be {FP_BYTES} bytes")
        slots = self.slots
        slot = int.from_bytes(fp[:8], "little") % slots
        with self.lock:
            if fp == _ZERO_FP:  # the header byte
                if self.shm.buf[0]:
                    return False
                self.shm.buf[0] = 1
                return True
            for _ in range(slots):
                off = 1 + slot * FP_BYTES
                cur = bytes(self.shm.buf[off : off + FP_BYTES])
                if cur == fp:
                    return False
                if cur == _ZERO_FP:
                    self.shm.buf[off : off + FP_BYTES] = fp
                    return True
                slot = (slot + 1) % slots
        raise SeenSetFull(
            f"claim table full ({slots} slots): the fingerprint "
            "population exceeded twice the capacity hint"
        )

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
