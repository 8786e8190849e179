"""Theorem 2: the general case — m servers, N+1 objects, partial replication.

The appendix generalizes the induction (Lemmas 4–6): the necessary
message of round ``k`` may now come from *any* server — explicitly to
another server, or implicitly through ``c_w`` (a server messages
``c_w``, after which ``c_w`` messages a *different* server).  The splice
picks one server ``p`` that answers with written values while every
other server answers old; partial replication (no server stores all
objects) guarantees the resulting read is mixed.

The rounds are :func:`repro.core.induction.induct`'s, with every server
a sender and a receiver of ``ms_k`` and the objects' primaries, in
object order, as the splice candidates.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.induction import MsDetector, induct
from repro.core.setup import TheoremSystem
from repro.core.theorem import prepare_or_verdict
from repro.core.witness import TheoremVerdict


def run_general_induction(tsys: TheoremSystem, max_k: int = 8) -> TheoremVerdict:
    """The Lemma 6 induction for m servers / partial replication."""
    servers = set(tsys.servers)
    primaries = [tsys.primary(obj) for obj in tsys.objects]
    return induct(
        tsys, lambda k: (MsDetector(tsys.cw, servers, servers), primaries), max_k
    )


def check_impossibility_general(
    protocol: str,
    objects: Sequence[str] = ("X0", "X1", "X2"),
    n_servers: int = 3,
    replication: int = 1,
    max_k: int = 8,
    **params,
) -> TheoremVerdict:
    """Theorem 2 driver: general topology, optional partial replication."""
    if replication >= n_servers:
        raise ValueError(
            "Theorem 2 requires partial replication: no server may store "
            "all objects (replication < n_servers)"
        )
    tsys = prepare_or_verdict(
        protocol,
        objects=objects,
        n_servers=n_servers,
        replication=replication,
        **params,
    )
    if isinstance(tsys, TheoremVerdict):
        return tsys
    return run_general_induction(tsys, max_k=max_k)
