"""Bounded model checking: the brute-force complement to the proof engine.

The proof-guided engine (:mod:`repro.core.induction`) knows *which*
adversary schedule exposes a protocol; this module instead enumerates
**every** adversary schedule of a small scenario and checks every
completed history for anomalies.  On a two-server scenario with one
multi-object write and one fast ROT it *proves* (within the scope) that
COPS-SNOW has no violating schedule and *finds* FastClaim's violating
schedules without being told where to look.

The search itself lives in :mod:`repro.engine` — one depth-first
search with sleep-set partial-order reduction and a parallel
frontier; this module is the scenario-level wrapper: it invokes
the script, picks the adversary's process set, and forwards the knobs.
:class:`ExplorationResult` is re-exported from the engine so existing
callers keep importing it from here.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.engine import ExplorationResult, run as engine_run
from repro.protocols.base import System
from repro.txn.types import Transaction

__all__ = ["ExplorationResult", "explore", "explore_write_read_race"]


def explore(
    system: System,
    script: Sequence[Tuple[str, Transaction]],
    max_depth: int = 40,
    max_states: int = 50_000,
    first_violation_only: bool = True,
    checker: str = "causal",
    por: bool = False,
    workers: int = 1,
) -> ExplorationResult:
    """Exhaustively explore every schedule of ``script`` on ``system``.

    ``script`` is a list of (client, transaction) pairs, all invoked up
    front; the adversary then chooses every interleaving of steps and
    deliveries.  Each maximal (quiescent) schedule's history is checked
    with ``checker`` — ``"causal"`` (Definition 1 anomalies),
    ``"read-atomic"`` (fractured reads) or ``"sessions"`` (the four
    session guarantees).  The weaker levels support the paper's closing
    question about the weakest consistency condition for which the
    impossibility holds: they let the explorer hunt for schedules where
    a "fast" protocol breaks read atomicity or a session guarantee,
    strictly weaker levels than causal consistency.

    ``por`` and ``workers`` forward to the engine: sleep-set
    partial-order reduction keeps one representative per Mazurkiewicz
    trace (identical verdicts, far fewer states), and ``workers > 1``
    fans an exhaustive (``first_violation_only=False``) DFS of a
    POR-safe protocol out over a shared fingerprint claim set, with
    ``max_states`` as one pool-wide budget; any other ``workers > 1``
    request is answered serially (``result.auto_serial``).
    """
    sim = system.sim
    for client, txn in script:
        sim.invoke(client, txn)
    return engine_run(
        system,
        checker=checker,
        por=por,
        workers=workers,
        max_depth=max_depth,
        max_states=max_states,
        first_violation_only=first_violation_only,
    )


def explore_write_read_race(
    protocol: str,
    max_depth: int = 40,
    max_states: int = 50_000,
    checker: str = "causal",
    por: bool = False,
    workers: int = 1,
    first_violation_only: bool = True,
    **params,
) -> ExplorationResult:
    """The canonical scenario: the theorem's write racing a fast ROT.

    Builds the Figure-1 style configuration (initial values written and
    read by the writer client), then explores every interleaving of a
    multi-object write transaction with one read-only transaction
    (:meth:`~repro.core.setup.TheoremSystem.race_script`).  Protocols
    without write transactions use one single write per object instead
    (a causal chain through the writing client).

    ``por=True`` requires the protocol's registry row to declare
    ``por_safe``; the synchronized-clock families (TrueTime, GST-style
    stability) branch on the global step counter and therefore fall
    outside the :func:`repro.sim.events.independent` relation's
    assumptions — the registry marks them ``por_safe=False`` and this
    wrapper refuses to reduce them.
    """
    from repro.core.setup import prepare_theorem_system
    from repro.protocols import get_protocol

    info = get_protocol(protocol)
    if por and not info.por_safe:
        raise ValueError(
            f"{protocol} is not declared POR-safe in the registry; "
            "run with por=False"
        )
    tsys = prepare_theorem_system(protocol, n_probes=2, **params)
    return explore(
        tsys.system,
        tsys.race_script(),
        max_depth=max_depth,
        max_states=max_states,
        first_violation_only=first_violation_only,
        checker=checker,
        por=por,
        workers=workers,
    )
