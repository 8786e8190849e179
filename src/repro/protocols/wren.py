"""Wren — non-blocking causal ROTs *with* multi-object write transactions.

Table 1 row: R = 2, V = 1, non-blocking, WTX, causal consistency.
This is the N+V+W corner of Section 3.4: Wren keeps write transactions
and non-blocking one-value reads by paying a second round for the
snapshot.

Writes are client-coordinated 2PC; a server's local stable frontier is
held below the prepare timestamp of any in-flight transaction, so the
global stable snapshot handed to readers can never straddle a commit.
Freshly committed writes may be above the snapshot; the client reads its
*own* recent writes from a local cache (the mechanism the paper's §3.4
describes).
"""

from __future__ import annotations

from repro.protocols.snapshot import ScalarSnapshotServer, SnapshotClient
from repro.protocols.twophase import TwoPCClientMixin, TwoPCMixin


class WrenServer(TwoPCMixin, ScalarSnapshotServer):
    def snapshot_view(self) -> int:
        return self.gst()

    def can_serve(self, snap: int) -> bool:
        return True


class WrenClient(TwoPCClientMixin, SnapshotClient):
    push_dependencies = False
    use_write_cache = True
