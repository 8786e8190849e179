"""The Lemma 3 induction (and Lemma 6's): constructing the troublesome
execution.

Round ``k`` runs the write-only transaction ``T_w`` solo from
``C_{k-1}`` under a fair adversary, watching for the *necessary message*
``ms_k`` from a *sender* server towards a *receiver* server:

* **explicit** — a message from a sender to a receiver, or
* **implicit** — a message from a sender to ``c_w`` such that, after
  consuming it, ``c_w`` sends a message to a receiver.

Theorem 1 (two servers, :func:`run_induction`) watches
``p_{k%2} → p_{(k-1)%2}``; Theorem 2's appendix (m servers, partial
replication, :func:`repro.core.general.run_general_induction`) watches
every server on both sides.  That — the ``roles`` of round ``k`` and the
servers tried as the splice's new server — is the only difference, so
both run the one loop in :func:`induct`.

Claim 1 of the lemma says one of these must occur before the written
values become visible; claim 2 says that at the cut ``C_k`` (right after
``ms_k`` is sent) the values are still invisible.  The engine checks
both *operationally*:

* if the values become visible with no ``ms_k`` (claim 1's premise
  violated — e.g. FastClaim), it builds the paper's γ: σ_old from
  ``C_{k-1}``, the spliced β_new, σ_new — and the resulting fast ROT
  returns a mix of old and new values: a causal-consistency violation
  witness;
* if at ``C_k`` some value is already visible (claim 2's premise
  violated), it builds δ the same way with ρ_new;
* otherwise it advances to round ``k+1``; reaching ``max_k`` with a
  forced message every round is the troublesome execution materialized
  (``UNBOUNDED_VISIBILITY``).

Every splice is self-validating: the witness is only accepted if the
spliced execution — a legal protocol execution assembled purely from
recorded trace events — actually produced the mixed read, and the causal
checker confirms the anomaly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Collection, List, Optional, Sequence, Set, Tuple

from repro.consistency.causal import find_causal_anomalies
from repro.core.constructions import (
    ConstructionError,
    finish_with_new,
    run_sigma_old,
)
from repro.core.setup import TheoremSystem
from repro.core.splicing import RecordedFragment, SpliceError, splice_new
from repro.core.visibility import probe_read
from repro.core.witness import (
    CAUSAL_VIOLATION,
    INCONCLUSIVE,
    STALLED,
    UNBOUNDED_VISIBILITY,
    MixedReadWitness,
    TheoremVerdict,
)
from repro.sim.executor import Configuration, ReplayError
from repro.sim.scheduler import RoundRobinScheduler
from repro.sim.trace import StepEvent
from repro.txn.history import History, build_history
from repro.txn.types import TxnRecord


@dataclass
class MsDetector:
    """Watches one round's trace for the necessary message ``ms_k``.

    Explicit: a step of a sender sends to a receiver other than itself.
    Implicit: ``c_w`` consumed a message from a sender and later sends to
    a receiver other than that sender.
    """

    cw: str
    senders: Collection[str]
    receivers: Collection[str]
    consumed_from: Set[str] = field(default_factory=set)
    found: Optional[str] = None  # description, once detected

    def observe(self, event) -> Optional[str]:
        if self.found is not None or not isinstance(event, StepEvent):
            return self.found
        if event.pid == self.cw:
            self.consumed_from.update(
                m.src for m in event.received if m.src in self.senders
            )
            for m in event.sent:
                others = self.consumed_from - {m.dst}
                if m.dst in self.receivers and others:
                    self.found = f"implicit: {min(others)} -> {self.cw} -> {m.dst}"
                    break
        elif event.pid in self.senders:
            for m in event.sent:
                if m.dst in self.receivers and m.dst != event.pid:
                    self.found = f"explicit: {event.pid} -> {m.dst}"
                    break
        return self.found


def _witness_history(tsys: TheoremSystem, reader_record: TxnRecord) -> History:
    """The history of the spliced execution, with ``T_w`` closed off.

    β_new drops ``c_w``'s completing steps, so ``T_w`` may be active at
    the end of γ; the paper's ``comm(H)`` closure adds the missing write
    responses — here, a synthesized record for ``T_w``.
    """
    hist = build_history(tsys.sim)
    if not any(r.txid == "Tw" for r in hist.records):
        hist.records.append(
            TxnRecord(
                txn=tsys.tw(),
                client=tsys.cw,
                reads={},
                invoked_at=10**9,
                completed_at=10**9 + 1,
            )
        )
    if not any(r.txid == reader_record.txid for r in hist.records):
        hist.records.append(reader_record)
    return hist


def build_splice_witness(
    tsys: TheoremSystem,
    start: Configuration,
    fragment: RecordedFragment,
    new_server: str,
    k: int,
    construction: str,
) -> MixedReadWitness:
    """Assemble γ (or δ) from ``start`` and return its witness.

    Raises :class:`SpliceError`/:class:`ConstructionError` when the
    protocol broke a premise mid-splice.
    """
    sim = tsys.sim
    sim.restore(start)
    reader = tsys.probes[1]
    old_servers = [s for s in tsys.servers if s != new_server]
    sigma = run_sigma_old(
        sim,
        reader,
        tsys.objects,
        old_servers=old_servers,
        new_servers=[new_server],
        txid=f"Tr_{construction}{k}",
    )
    beta_new = splice_new(fragment, tsys.cw, new_server, tsys.servers)
    try:
        sim.replay(beta_new, strict=True)
    except ReplayError as exc:
        raise SpliceError(
            f"replay of {construction}_new failed (a splice premise did not "
            f"hold): {exc}"
        ) from exc
    record = finish_with_new(sim, sigma)
    witness = MixedReadWitness(
        reader=reader,
        reads=dict(record.reads),
        old_values=dict(tsys.init_values),
        new_values=dict(tsys.new_values),
        construction=construction,
        k=k,
    )
    if witness.is_mixed():
        witness.anomalies = find_causal_anomalies(_witness_history(tsys, record))
    return witness


#: events ``T_w`` may run solo in one round before the round is inconclusive
SOLO_BUDGET = 30_000
#: solo events between two visibility probes
PROBE_EVERY = 25


#: ``roles(k) -> (detector, candidates)``: round ``k``'s necessary-message
#: detector and the servers tried, in order, as the splice's new server
Roles = Callable[[int], Tuple[MsDetector, Sequence[str]]]


def induct(tsys: TheoremSystem, roles: Roles, max_k: int = 8) -> TheoremVerdict:
    """Run the induction rounds against ``tsys`` (see module docstring).

    γ tries the round's candidates; δ first tries the primaries of the
    objects already visible at ``C_k``, then the candidates.
    """
    sim = tsys.sim
    if tsys.c0 is None:
        raise ValueError("theorem system not prepared (no C0)")
    protocol = tsys.system.info.name
    solo = (tsys.cw,) + tuple(tsys.servers)
    prev = tsys.c0
    forced: List[str] = []

    for k in range(1, max_k + 1):
        detector, candidates = roles(k)
        sim.restore(prev)
        fragment = RecordedFragment([])
        if k == 1:
            fragment.events.append(sim.invoke(tsys.cw, tsys.tw()))
        sched = RoundRobinScheduler()
        events_run = 0
        ms_desc: Optional[str] = None
        visible_all = False
        quiescent = False

        while events_run < SOLO_BUDGET:
            # one window per solo event: the probe's events stay out
            with sim.recording() as applied:
                progressed = sched.tick(sim, pids=solo)
            fragment.events.extend(applied)
            if progressed:
                events_run += 1
                ms_desc = detector.observe(applied[-1])
                if ms_desc is not None:
                    break
            if not progressed or events_run % PROBE_EVERY == 0:
                reads = probe_read(sim, tsys.probes[0], tsys.objects, tsys.service_pids)
                if reads is not None and all(
                    reads.get(o) == v for o, v in tsys.new_values.items()
                ):
                    visible_all = True
                    break
                if not progressed:
                    quiescent = True
                    break

        if ms_desc is None and visible_all:
            # claim 1's premise is violated: the values became visible with
            # no necessary message — build γ and exhibit the mixed read.
            return try_splice_candidates(
                tsys, prev, fragment, candidates, k, "gamma", forced
            )
        if ms_desc is None and quiescent:
            return TheoremVerdict(
                protocol=protocol,
                outcome=STALLED,
                k_reached=k,
                detail=(
                    "T_w executing solo reached quiescence with its values "
                    "invisible: minimal progress (Definition 3) violated"
                ),
                forced_messages=forced,
            )
        if ms_desc is None:
            return TheoremVerdict(
                protocol=protocol,
                outcome=INCONCLUSIVE,
                k_reached=k,
                detail=f"solo budget exhausted in round {k}",
                forced_messages=forced,
            )

        # ms_k found: C_k is the configuration right after its send; the
        # probe branches from the same snapshot we keep as the next C_{k-1}
        forced.append(f"k={k}: {ms_desc}")
        c_k = sim.snapshot()
        reads = probe_read(
            sim, tsys.probes[0], tsys.objects, tsys.service_pids, snap=c_k
        )
        visible_objs = [
            o
            for o, v in tsys.new_values.items()
            if reads is not None and reads.get(o) == v
        ]
        if visible_objs:
            # claim 2's premise is violated: a value is visible at C_k —
            # build δ from ρ = α'_k and exhibit the mixed read.  The best
            # "new" role is the server actually holding a visible value.
            primaries = [tsys.primary(o) for o in visible_objs]
            return try_splice_candidates(
                tsys, prev, fragment, primaries + list(candidates), k, "delta", forced
            )
        prev = c_k

    return TheoremVerdict(
        protocol=protocol,
        outcome=UNBOUNDED_VISIBILITY,
        k_reached=max_k,
        detail=(
            f"every round up to k={max_k} forced another necessary "
            "message while T_w's values stayed invisible — the troublesome "
            "execution of Lemma 3, materialized"
        ),
        forced_messages=forced,
    )


def run_induction(tsys: TheoremSystem, max_k: int = 8) -> TheoremVerdict:
    """Run the Lemma 3 induction against ``tsys`` (two-server form).

    Round ``k`` watches ``p_{k%2} → p_{(k-1)%2}`` and tries
    ``p_{(k-1)%2}`` as the new server first.
    """
    servers = tsys.servers
    if len(servers) != 2:
        raise ValueError(
            "run_induction is the two-server Theorem 1 engine; use "
            "repro.core.general for the m-server / partial-replication case"
        )

    def roles(k: int) -> Tuple[MsDetector, Sequence[str]]:
        p_old, p_new = servers[k % 2], servers[(k - 1) % 2]
        return MsDetector(tsys.cw, {p_old}, {p_new}), [p_new, p_old]

    return induct(tsys, roles, max_k)


def try_splice_candidates(
    tsys: TheoremSystem,
    start: Configuration,
    fragment: RecordedFragment,
    candidates: Sequence[str],
    k: int,
    construction: str,
    forced: List[str],
) -> TheoremVerdict:
    """Try each distinct candidate ``p`` role until a splice yields a mixed read."""
    verdict: Optional[TheoremVerdict] = None
    for p_new in dict.fromkeys(candidates):
        verdict = _conclude_with_splice(
            tsys, start, fragment, p_new, k, construction, forced
        )
        if verdict.outcome == CAUSAL_VIOLATION:
            break
    assert verdict is not None
    return verdict


def _conclude_with_splice(
    tsys: TheoremSystem,
    start: Configuration,
    fragment: RecordedFragment,
    p_new: str,
    k: int,
    construction: str,
    forced: List[str],
) -> TheoremVerdict:
    protocol = tsys.system.info.name
    try:
        witness = build_splice_witness(tsys, start, fragment, p_new, k, construction)
    except (SpliceError, ConstructionError) as exc:
        return TheoremVerdict(
            protocol=protocol,
            outcome=INCONCLUSIVE,
            k_reached=k,
            detail=f"splice failed: {exc}",
            forced_messages=forced,
        )
    if witness.is_mixed():
        return TheoremVerdict(
            protocol=protocol,
            outcome=CAUSAL_VIOLATION,
            k_reached=k,
            witness=witness,
            detail=(
                "the spliced execution made a fast ROT return a mix of old "
                "and new values (Lemma 1 contradiction): the protocol is "
                "not causally consistent"
            ),
            forced_messages=forced,
        )
    return TheoremVerdict(
        protocol=protocol,
        outcome=INCONCLUSIVE,
        k_reached=k,
        witness=witness,
        detail=(
            f"splice {construction} completed but the read was not mixed: "
            f"{witness.reads}"
        ),
        forced_messages=forced,
    )
