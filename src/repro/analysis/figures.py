"""Regenerating the paper's figures as annotated execution diagrams.

The paper's three figures are *proof illustrations*; here each is
regenerated from an actual run of the corresponding machinery:

* **Figure 1** — the initialization phase ``Q_in → Q_0 → C_0``
  (:func:`figure1`): the initial writes become visible, ``c_w`` reads
  them, the system quiesces;
* **Figure 2** — Constructions 1 and 2 (:func:`figure2`): the same fast
  ROT returns ``(x_in0, x_in1)`` when a server answers before the write
  is visible and ``(x0, x1)`` after;
* **Figure 3** — execution β, its spliced subsequence β_new, and the
  contradictory γ (:func:`figure3`): run against a protocol that claims
  all four properties, ending in the mixed read.

Each function returns a plain-text diagram; the corresponding benchmark
prints it so the reproduction artifacts are regenerable on demand.
"""

from __future__ import annotations

from repro.core.constructions import finish_with_new, run_sigma_old
from repro.core.induction import run_induction
from repro.core.setup import prepare_theorem_system
from repro.sim.scheduler import RoundRobinScheduler
from repro.analysis.spacetime import lane_diagram as _lane_diagram


def figure1(protocol: str = "cops_snow", **params) -> str:
    """The initialization Q_in → Q_0 → C_0 (Figure 1), from a real run."""
    tsys = prepare_theorem_system(protocol, **params)
    lines = [
        f"Figure 1 — configurations Q_in, Q_0, C_0 ({protocol})",
        "",
        "Q_in : all processes in initial state, no message in transit.",
    ]
    for i, obj in enumerate(tsys.objects):
        lines.append(
            f"  T_in{i} by {tsys.init_clients[i]}: w({obj}){tsys.init_values[obj]!r}"
        )
    lines.append(
        "Q_0  : all initial values visible "
        f"(verified by a frozen-adversary probe over {tsys.objects})."
    )
    rec = tsys.system.client(tsys.cw).completed[-1]
    reads = ", ".join(f"r({o}){v!r}" for o, v in sorted(rec.reads.items()))
    lines.append(f"  T_in_r by {tsys.cw}: {reads}")
    lines.append(
        "C_0  : T_in_r complete, no message in transit "
        f"(in-transit = {tsys.sim.network.n_in_transit()})."
    )
    return "\n".join(lines)


def figure2(protocol: str = "fastclaim", **params) -> str:
    """Constructions 1 and 2 (Figure 2), executed."""
    tsys = prepare_theorem_system(protocol, **params)
    sim = tsys.sim
    servers = tsys.servers
    c0 = tsys.c0
    lines = [f"Figure 2 — Constructions 1 and 2 ({protocol})", ""]

    # Construction 1: T_w has not made its values visible (here: not even
    # started); the reader must return the initial values.
    sim.restore(c0)
    with sim.recording() as events:
        sigma = run_sigma_old(
            sim,
            tsys.probes[1],
            tsys.objects,
            old_servers=[servers[0]],
            new_servers=list(servers[1:]),
            txid="Tr_old",
        )
        rec_old = finish_with_new(sim, sigma)
    lines.append("Construction 1 (γ_old): C with x_i not visible; p_i answers first")
    lines.extend(
        "  " + ln for ln in _lane_diagram(events, (tsys.probes[1],) + tuple(servers))
    )
    lines.append(f"  ⇒ T_r returns {dict(sorted(rec_old.reads.items()))}  (all initial)")
    lines.append("")

    # Construction 2: run T_w solo to visibility, then read.
    sim.restore(c0)
    sim.invoke(tsys.cw, tsys.tw())
    sched = RoundRobinScheduler()
    sched.run(sim, pids=(tsys.cw,) + tuple(servers), max_events=50_000)
    with sim.recording() as events:
        sigma = run_sigma_old(
            sim,
            tsys.probes[2],
            tsys.objects,
            old_servers=[servers[1]],
            new_servers=[servers[0]],
            txid="Tr_new",
        )
        rec_new = finish_with_new(sim, sigma)
    lines.append("Construction 2 (γ_new): C with x_i visible; p_{1-i} answers first")
    lines.extend(
        "  " + ln for ln in _lane_diagram(events, (tsys.probes[2],) + tuple(servers))
    )
    lines.append(f"  ⇒ T_r returns {dict(sorted(rec_new.reads.items()))}  (all written)")
    return "\n".join(lines)


def figure3(protocol: str = "fastclaim", max_k: int = 6, **params) -> str:
    """Execution β, the splice β_new, and the contradictory γ (Figure 3)."""
    tsys = prepare_theorem_system(protocol, **params)
    verdict = run_induction(tsys, max_k=max_k)
    lines = [
        f"Figure 3 — β, β_new and the contradictory execution γ ({protocol})",
        "",
        f"Engine verdict: {verdict.outcome} at k={verdict.k_reached}",
    ]
    for f in verdict.forced_messages:
        lines.append(f"  necessary message {f}")
    if verdict.witness is not None:
        w = verdict.witness
        lines.append("")
        lines.append(
            f"Spliced execution {w.construction} (σ_old · "
            f"{'β' if w.construction == 'gamma' else 'ρ'}_new · σ_new):"
        )
        lines.append(f"  reader {w.reader} returned:")
        for obj in sorted(w.reads):
            val = w.reads[obj]
            origin = (
                "OLD (pre-T_w)"
                if val == w.old_values.get(obj)
                else "NEW (written by T_w)"
                if val == w.new_values.get(obj)
                else "?"
            )
            lines.append(f"    r({obj}) = {val!r}   <- {origin}")
        lines.append("  — a mix of old and new values: Lemma 1 is contradicted.")
        for a in w.anomalies[:4]:
            lines.append(f"  checker: {a.describe()}")
    return "\n".join(lines)
