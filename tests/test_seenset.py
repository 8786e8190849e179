"""The shared claim set: the cross-process dedup under the frontier.

Three layers of scrutiny:

* **Unit** — the claim protocol on one table: first claim inserts,
  second hits; the all-zeroes fingerprint rides the header byte; the
  table survives pickling (workers re-attach to the same segment);
  a full table raises instead of guessing.  A claim is its own
  membership test: once a fingerprint is in, every claim of it
  answers False.
* **Property** (hypothesis) — for arbitrary fingerprint populations
  raced by concurrent claimer threads, every fingerprint is claimed by
  *exactly one* claimer and no insert is ever lost: the number of
  successful claims equals the number of distinct fingerprints.
* **Multiprocess** — the same exactly-once guarantee across real
  forked processes hammering one shared segment.
"""

import multiprocessing
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.seenset import FP_BYTES, SeenSetFull, SharedSeenSet


def _fp(i: int) -> bytes:
    return i.to_bytes(FP_BYTES, "big")


# ---------------------------------------------------------------------------
# unit: one table, one process
# ---------------------------------------------------------------------------


def test_claim_is_insert_if_absent():
    s = SharedSeenSet(64)
    try:
        assert s.claim(_fp(1)) is True
        assert s.claim(_fp(1)) is False
        assert s.claim(_fp(2)) is True
        assert s.claim(_fp(2)) is False
    finally:
        s.unlink()


def test_zero_fingerprint_uses_header_byte():
    s = SharedSeenSet(64)
    try:
        zero = b"\x00" * FP_BYTES
        assert s.shm.buf[0] == 0
        assert s.claim(zero) is True
        assert s.shm.buf[0] == 1
        assert s.claim(zero) is False
        # the header byte, not a slot: the probe region is still empty
        assert bytes(s.shm.buf[1:]) == bytes(s.slots * FP_BYTES)
    finally:
        s.unlink()


def test_rejects_wrong_width():
    s = SharedSeenSet(64)
    try:
        with pytest.raises(ValueError):
            s.claim(b"short")
    finally:
        s.unlink()


def test_full_table_raises():
    s = SharedSeenSet(1)  # minimum table: 1024 slots
    try:
        for i in range(1, s.slots + 1):
            assert s.claim(_fp(i)) is True
        # no free slot: neither "claimed" (expand without dedup) nor
        # "present" (prune an unexplored class) would be true
        with pytest.raises(SeenSetFull):
            s.claim(_fp(s.slots + 1))
        # what is in the table is still answered
        assert s.claim(_fp(1)) is False
    finally:
        s.unlink()


def test_setstate_reattaches_same_segment():
    # mp locks only pickle while spawning a Process (the pool ships the
    # set through Process args), so exercise the reattach path directly
    s = SharedSeenSet(64)
    try:
        assert s.claim(_fp(3)) is True
        attached = SharedSeenSet.__new__(SharedSeenSet)
        attached.__setstate__(s.__getstate__())
        try:
            # same table: the original's insert is visible, a new claim
            # through the attachment is visible back
            assert attached.claim(_fp(3)) is False
            assert attached.claim(_fp(4)) is True
            assert s.claim(_fp(4)) is False
        finally:
            attached.close()
    finally:
        s.unlink()


# ---------------------------------------------------------------------------
# property: concurrent claimers, exactly-once
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    fps=st.sets(st.binary(min_size=FP_BYTES, max_size=FP_BYTES), max_size=60),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_claim_never_loses_an_insert_under_racing_claimers(fps, seed):
    """N claimers race the same population: each fingerprint is claimed
    exactly once in total, no matter how the schedules interleave."""
    import random

    fps = sorted(fps)
    s = SharedSeenSet(max(len(fps), 1))
    try:
        wins = [0] * 4
        barrier = threading.Barrier(4)

        def claimer(k: int) -> None:
            order = list(fps)
            random.Random(seed + k).shuffle(order)
            barrier.wait()
            for fp in order:
                if s.claim(fp):
                    wins[k] += 1

        threads = [
            threading.Thread(target=claimer, args=(k,)) for k in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(wins) == len(fps)  # exactly once, nothing lost
        assert not any(s.claim(fp) for fp in fps)
    finally:
        s.unlink()


# ---------------------------------------------------------------------------
# multiprocess: the real thing
# ---------------------------------------------------------------------------


def _hammer(seen, fps, out_q, k):
    wins = 0
    for fp in fps:
        if seen.claim(fp):
            wins += 1
    seen.close()
    out_q.put((k, wins))


def test_claims_unique_across_processes():
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-posix
        ctx = multiprocessing.get_context("spawn")
    population = [_fp(i) for i in range(1, 301)]
    s = SharedSeenSet(len(population), ctx=ctx)
    out_q = ctx.Queue()
    procs = []
    try:
        for k in range(4):
            order = population[k:] + population[:k]
            p = ctx.Process(target=_hammer, args=(s, order, out_q, k))
            p.start()
            procs.append(p)
        wins = dict(out_q.get(timeout=30) for _ in range(4))
        for p in procs:
            p.join(timeout=30)
        assert sum(wins.values()) == len(population)
        assert not any(s.claim(fp) for fp in population)
    finally:
        for p in procs:
            if p.is_alive():  # pragma: no cover - hang cleanup
                p.terminate()
        s.unlink()
