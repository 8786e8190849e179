"""Definition 4 (fast ROT) measured on every protocol of the zoo.

``GOLDEN`` pins, per protocol, the run-level verdict on the default
probe workload (``DEFAULT_FAST_SPEC``, 4 objects on 2 servers) and the
Theorem 1 driver's reading of it: (R, hops, V, N, fast, blocked ROTs,
ROTs, the record's ``describe()``, ``check_impossibility(p, max_k=2)``'s
outcome and detail).  R, hops and V are maxima over the run's ROTs; V
counts a value for an unrequested object as one more.
"""

import pytest

from repro.analysis import measure
from repro.core import check_impossibility
from repro.protocols import protocol_names
from repro.workloads import DEFAULT_FAST_SPEC, WorkloadSpec

GOLDEN = {
    'calvin': (1, 3, 1, 'no', 'no', 2, 35,
        'calvin: ROTs not fast — gives up one-roundtrip (measured up to 1 client rounds, 3 message hops); non-blocking (2 deferred replies)',
        'NOT_FAST', 'the protocol keeps multi-object write transactions by giving up one-roundtrip (measured up to 1 client rounds, 3 message hops); non-blocking (2 deferred replies)'),
    'contrarian': (2, 4, 1, 'yes', 'no', 0, 35,
        'contrarian: ROTs not fast — gives up one-roundtrip (measured up to 2 client rounds, 4 message hops)',
        'NO_MULTI_WRITE', 'the protocol refuses multi-object write transactions: Contrarian supports only single-object writes — it keeps fast ROTs by giving up W'),
    'cops': (1, 2, 1, 'yes', 'yes', 0, 35,
        'cops: ROTs measured fast over 35 ROTs',
        'NO_MULTI_WRITE', 'the protocol refuses multi-object write transactions: COPS supports only single-object writes (no multi-object write transactions) — it keeps fast ROTs by giving up W'),
    'cops_rw': (1, 2, 7, 'yes', 'no', 0, 35,
        'cops_rw: ROTs not fast — gives up one-value (measured up to 7 values per object)',
        'NOT_FAST', 'the protocol keeps multi-object write transactions by giving up one-value (measured up to 7 values per object)'),
    'cops_snow': (1, 2, 1, 'yes', 'yes', 0, 35,
        'cops_snow: ROTs measured fast over 35 ROTs',
        'NO_MULTI_WRITE', 'the protocol refuses multi-object write transactions: COPS-SNOW supports only single-object writes — it keeps fast ROTs by giving up W'),
    'cure': (2, 4, 1, 'no', 'no', 10, 35,
        'cure: ROTs not fast — gives up one-roundtrip (measured up to 2 client rounds, 4 message hops); non-blocking (10 deferred replies)',
        'NOT_FAST', 'the protocol keeps multi-object write transactions by giving up one-roundtrip (measured up to 2 client rounds, 4 message hops); non-blocking (10 deferred replies)'),
    'eiger': (2, 4, 2, 'yes', 'no', 0, 35,
        'eiger: ROTs not fast — gives up one-roundtrip (measured up to 2 client rounds, 4 message hops); one-value (measured up to 2 values per object)',
        'NOT_FAST', 'the protocol keeps multi-object write transactions by giving up one-roundtrip (measured up to 2 client rounds, 4 message hops); one-value (measured up to 2 values per object)'),
    'fastclaim': (1, 2, 1, 'yes', 'yes', 0, 35,
        'fastclaim: ROTs measured fast over 35 ROTs',
        'CAUSAL_VIOLATION', 'the spliced execution made a fast ROT return a mix of old and new values (Lemma 1 contradiction): the protocol is not causally consistent'),
    'gentlerain': (2, 4, 1, 'no', 'no', 4, 35,
        'gentlerain: ROTs not fast — gives up one-roundtrip (measured up to 2 client rounds, 4 message hops); non-blocking (4 deferred replies)',
        'NO_MULTI_WRITE', 'the protocol refuses multi-object write transactions: GentleRain supports only single-object writes — it keeps fast ROTs by giving up W'),
    'handshake': (1, 2, 1, 'yes', 'yes', 0, 35,
        'handshake: ROTs measured fast over 35 ROTs',
        'UNBOUNDED_VISIBILITY', "every round up to k=2 forced another necessary message while T_w's values stayed invisible — the troublesome execution of Lemma 3, materialized"),
    'occult': (2, 4, 2, 'yes', 'no', 0, 35,
        'occult: ROTs not fast — gives up one-roundtrip (measured up to 2 client rounds, 4 message hops); one-value (measured up to 2 values per object)',
        'NOT_FAST', 'the protocol keeps multi-object write transactions by giving up one-roundtrip (measured up to 2 client rounds, 4 message hops); one-value (measured up to 2 values per object)'),
    'orbe': (2, 4, 1, 'no', 'no', 13, 35,
        'orbe: ROTs not fast — gives up one-roundtrip (measured up to 2 client rounds, 4 message hops); non-blocking (13 deferred replies)',
        'NO_MULTI_WRITE', 'the protocol refuses multi-object write transactions: Orbe supports only single-object writes — it keeps fast ROTs by giving up W'),
    'ramp': (2, 4, 2, 'yes', 'no', 0, 35,
        'ramp: ROTs not fast — gives up one-roundtrip (measured up to 2 client rounds, 4 message hops); one-value (measured up to 2 values per object)',
        'NOT_FAST', 'the protocol keeps multi-object write transactions by giving up one-roundtrip (measured up to 2 client rounds, 4 message hops); one-value (measured up to 2 values per object)'),
    'ramp_small': (2, 4, 2, 'yes', 'no', 0, 35,
        'ramp_small: ROTs not fast — gives up one-roundtrip (measured up to 2 client rounds, 4 message hops); one-value (measured up to 2 values per object)',
        'NOT_FAST', 'the protocol keeps multi-object write transactions by giving up one-roundtrip (measured up to 2 client rounds, 4 message hops); one-value (measured up to 2 values per object)'),
    'spanner': (1, 2, 1, 'no', 'no', 24, 35,
        'spanner: ROTs not fast — gives up non-blocking (24 deferred replies)',
        'NOT_FAST', 'the protocol keeps multi-object write transactions by giving up non-blocking (24 deferred replies)'),
    'swiftcloud': (1, 2, 1, 'yes', 'yes', 0, 35,
        'swiftcloud: ROTs measured fast over 35 ROTs',
        'STALLED', 'setup failed: swiftcloud: initial values not visible after initialization (minimal progress violated during setup)'),
    'wren': (2, 4, 1, 'yes', 'no', 0, 35,
        'wren: ROTs not fast — gives up one-roundtrip (measured up to 2 client rounds, 4 message hops)',
        'NOT_FAST', 'the protocol keeps multi-object write transactions by giving up one-roundtrip (measured up to 2 client rounds, 4 message hops)'),
}


def definition4_row(protocol):
    record = measure(protocol, DEFAULT_FAST_SPEC, check=False)
    row = record.row()
    verdict = check_impossibility(protocol, max_k=2)
    return (
        row["R"], record.max_hops, row["V"], row["N"], row["fast"],
        record.n_blocked, record.n_rots, record.describe(),
        verdict.outcome, verdict.detail,
    )


def test_golden_covers_the_zoo():
    assert sorted(GOLDEN) == sorted(protocol_names())


@pytest.mark.parametrize("protocol", sorted(GOLDEN))
def test_definition4_row(protocol):
    assert definition4_row(protocol) == GOLDEN[protocol]


def test_a_run_without_rots_is_not_fast():
    record = measure("wren", WorkloadSpec(n_txns=30, read_ratio=0.0, seed=3), check=False)
    assert record.n_rots == 0
    assert not record.fast and record.row()["fast"] == "no"
    assert "no ROT" in record.describe()


def test_an_unchecked_run_is_not_verified():
    record = measure("cops_snow", WorkloadSpec(n_txns=20, seed=1), check=False)
    assert record.consistency is None and record.consistency_ok is None
    assert record.row()["verified"] == "unchecked"
