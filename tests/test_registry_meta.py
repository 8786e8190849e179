"""Registry metadata validation.

The registry rows are the paper's Table 1 transcribed into code; the
paper ledger (claimed vs measured) and the impossibility engine consume
them.  A malformed row would silently disable those cross-checks, so
the rows themselves are tested: shape, internal consistency, and the
flags derived from them (W and fast ROTs).
"""

import re

import pytest

from repro.protocols.base import ServerBase
from repro.protocols.registry import REGISTRY, PaperRow, ProtocolInfo
from repro.txn.client import ClientBase

ROUNDS_RE = re.compile(r"^(<=|>=)?\d+$")
VALUES_RE = re.compile(r"^((<=|>=)?\d+|many)$")
YES_NO = ("yes", "no")

NAMES = sorted(REGISTRY)


def test_registry_nonempty_and_keyed_by_name():
    assert len(REGISTRY) >= 17
    for name in NAMES:
        info = REGISTRY[name]
        assert isinstance(info, ProtocolInfo)
        assert info.name == name, f"registry key {name!r} != info.name {info.name!r}"


@pytest.mark.parametrize("name", NAMES)
def test_paper_row_well_formed(name):
    row = REGISTRY[name].paper_row
    assert isinstance(row, PaperRow)
    assert ROUNDS_RE.match(row.rounds), f"{name}: bad rounds {row.rounds!r}"
    assert VALUES_RE.match(row.values), f"{name}: bad values {row.values!r}"
    assert row.nonblocking in YES_NO, f"{name}: bad nonblocking {row.nonblocking!r}"
    assert row.wtx in YES_NO, f"{name}: bad wtx {row.wtx!r}"
    assert row.consistency.strip(), f"{name}: empty consistency cell"


#: the rows of Table 1 without multi-object write transactions
NO_WTX = ("contrarian", "cops", "cops_snow", "gentlerain", "orbe")


@pytest.mark.parametrize("name", NAMES)
def test_wtx_claim_matches_capability(name):
    """The capability flag is the Table-1 W cell.

    ``supports_wtx`` is read off the row, so the rows without W are
    exactly the pinned ones; ``test_protocols_basic``'s
    ``TestWriteTransactions`` and ``TestRestrictedProtocols`` check the
    flag against each client's ``validate``.
    """
    info = REGISTRY[name]
    row_wtx = info.paper_row.wtx == "yes"
    assert info.supports_wtx == row_wtx == (name not in NO_WTX), (
        f"{name}: supports_wtx={info.supports_wtx} but "
        f"paper_row.wtx={info.paper_row.wtx!r}"
    )


#: the rows of Table 1 that claim fast ROTs: the one honest fast
#: design, the two strawmen and the §4 dagger row
CLAIMS_FAST = ("cops_snow", "fastclaim", "handshake", "swiftcloud")


@pytest.mark.parametrize("name", NAMES)
def test_fast_rot_claim_is_derived_from_row(name):
    """A fast ROT is exactly: one round, one value per read, non-blocking.

    That is the paper's Definition 5; ``claims_fast_rot`` is read off the
    row, so the rows claiming it are exactly the pinned ones.
    """
    info = REGISTRY[name]
    row = info.paper_row
    derived = row.rounds == "1" and row.values == "1" and row.nonblocking == "yes"
    assert info.claims_fast_rot == derived == (name in CLAIMS_FAST), (
        f"{name}: claims_fast_rot={info.claims_fast_rot} but the row "
        f"(rounds={row.rounds!r}, values={row.values!r}, "
        f"nonblocking={row.nonblocking!r}) derives {derived}"
    )


@pytest.mark.parametrize("name", NAMES)
def test_factories_are_importable_protocol_classes(name):
    info = REGISTRY[name]
    assert isinstance(info.server_factory, type)
    assert issubclass(info.server_factory, ServerBase)
    assert isinstance(info.client_factory, type)
    assert issubclass(info.client_factory, ClientBase)
    # pickled snapshots name a process's class by __module__/__name__;
    # both must round-trip through a plain import
    for factory in (info.server_factory, info.client_factory):
        mod = __import__(factory.__module__, fromlist=[factory.__name__])
        assert getattr(mod, factory.__name__) is factory


@pytest.mark.parametrize("name", NAMES)
def test_consistency_fields_populated(name):
    info = REGISTRY[name]
    assert info.consistency in ("causal", "read-atomic", "strict-serializable")
    assert info.title.strip()
