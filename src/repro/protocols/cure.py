"""Cure — blocking causal ROTs with vector snapshots and write transactions.

Table 1 row: R = 2, V = 1, **blocking**, WTX, causal consistency.

Cure combines Orbe-style vector snapshots with multi-object write
transactions (client-coordinated 2PC here; prepared transactions hold
the local stable frontier down).  The client pushes its dependency
vector into the snapshot, so data servers whose stable vector lags must
defer — blocking reads, but fresh results and full write-transaction
support.
"""

from __future__ import annotations

from repro.protocols.snapshot import VectorSnapshotClient, VectorSnapshotServer
from repro.protocols.twophase import TwoPCClientMixin, TwoPCMixin


class CureServer(TwoPCMixin, VectorSnapshotServer):
    pass


class CureClient(TwoPCClientMixin, VectorSnapshotClient):
    push_dependencies = True
    use_write_cache = False
