"""Tests for the impossibility engine: visibility probes, setup,
constructions, splicing, the induction, and the theorem drivers."""

import pytest

from repro.analysis.metrics import analyze_transactions, measure
from repro.core import (
    CAUSAL_VIOLATION,
    NO_MULTI_WRITE,
    NOT_FAST,
    UNBOUNDED_VISIBILITY,
    FrozenScheduler,
    MixedReadWitness,
    SpliceError,
    check_impossibility,
    check_impossibility_general,
    prepare_theorem_system,
    probe_read,
    run_induction,
    run_general_induction,
    run_sigma_old,
    finish_with_new,
    splice_new,
    values_visible,
)
from repro.core.constructions import ConstructionError
from repro.core.splicing import RecordedFragment
from repro.protocols.base import build_system
from repro.sim.messages import Message
from repro.sim.scheduler import RoundRobinScheduler
from repro.sim.trace import DeliverEvent, InvokeEvent, StepEvent
from repro.txn.types import BOTTOM, read_only_txn, write_only_txn
from repro.workloads.generators import DEFAULT_FAST_SPEC, run_workload


# ---------------------------------------------------------------------------
# visibility probes
# ---------------------------------------------------------------------------


class TestVisibility:
    def test_probe_restores_configuration(self):
        tsys = prepare_theorem_system("fastclaim")
        sim = tsys.sim
        before = sim.snapshot()
        reads = probe_read(sim, tsys.probes[0], tsys.objects, tsys.servers)
        assert reads == dict(tsys.init_values)
        # configuration untouched
        assert sim.network.idle()
        assert len(sim.processes[tsys.probes[0]].completed) == 0

    def test_values_visible_after_write(self):
        tsys = prepare_theorem_system("fastclaim")
        sim = tsys.sim
        tsys.system.execute(tsys.cw, tsys.tw(), scheduler=RoundRobinScheduler())
        assert values_visible(sim, tsys.probes[0], tsys.new_values, tsys.servers)

    def test_frozen_scheduler_withholds(self):
        tsys = prepare_theorem_system("fastclaim")
        sim = tsys.sim
        # start Tw but freeze its messages: probe must see old values
        sim.invoke(tsys.cw, tsys.tw())
        sim.step(tsys.cw)
        reads = probe_read(sim, tsys.probes[0], tsys.objects, tsys.servers)
        assert reads == dict(tsys.init_values)

    def test_invisible_while_handshaking(self):
        tsys = prepare_theorem_system("handshake", sync_hops=2)
        sim = tsys.sim
        sim.invoke(tsys.cw, tsys.tw())
        sim.step(tsys.cw)
        for m in list(sim.network.pending()):
            sim.deliver_msg(m)
        sim.step(tsys.servers[0])
        sim.step(tsys.servers[1])
        # versions installed but invisible: probe returns the old values
        assert not values_visible(sim, tsys.probes[0], tsys.new_values, tsys.servers)
        assert values_visible(sim, tsys.probes[0], tsys.init_values, tsys.servers)


# ---------------------------------------------------------------------------
# setup (Figure 1)
# ---------------------------------------------------------------------------


class TestSetup:
    @pytest.mark.parametrize(
        "protocol", ["fastclaim", "cops", "cops_snow", "wren", "spanner"]
    )
    def test_c0_invariants(self, protocol):
        tsys = prepare_theorem_system(protocol)
        assert tsys.c0 is not None
        assert tsys.sim.network.idle()
        cw = tsys.system.client(tsys.cw)
        rec = cw.completed[-1]
        assert rec.txid == "Tinr"
        assert rec.reads == dict(tsys.init_values)

    def test_setup_creates_causal_edge(self):
        # T_in_i <c T_in_r via reads-from; that edge is what makes the
        # later mixed read a violation
        tsys = prepare_theorem_system("fastclaim")
        from repro.txn.history import build_history

        hist = build_history(tsys.sim)
        order = hist.causal_order()
        assert order.lt("Tin0", "Tinr")
        assert order.lt("Tin1", "Tinr")


# ---------------------------------------------------------------------------
# constructions (Figure 2)
# ---------------------------------------------------------------------------


class TestConstructions:
    def test_sigma_old_returns_old(self):
        tsys = prepare_theorem_system("fastclaim")
        sim = tsys.sim
        sigma = run_sigma_old(
            sim, tsys.probes[1], tsys.objects, ["s0"], ["s1"], txid="t"
        )
        assert sigma.replied == ("s0",)
        assert set(sigma.pending_requests) == {"s1"}
        rec = finish_with_new(sim, sigma)
        assert rec.reads == dict(tsys.init_values)

    def test_gamma_new_returns_new(self):
        tsys = prepare_theorem_system("fastclaim")
        sim = tsys.sim
        tsys.system.execute(tsys.cw, tsys.tw(), scheduler=RoundRobinScheduler())
        sigma = run_sigma_old(
            sim, tsys.probes[1], tsys.objects, ["s1"], ["s0"], txid="t"
        )
        rec = finish_with_new(sim, sigma)
        assert rec.reads == dict(tsys.new_values)

    def test_blocking_protocol_raises_construction_error(self):
        # spanner ROTs go one round but the *snapshot request* pattern of
        # wren needs two rounds: σ_old must refuse wren's reader
        tsys = prepare_theorem_system("wren")
        sim = tsys.sim
        with pytest.raises(ConstructionError):
            run_sigma_old(sim, tsys.probes[1], tsys.objects, ["s0"], ["s1"])


# ---------------------------------------------------------------------------
# splicing
# ---------------------------------------------------------------------------


def _label(event):
    """An event as its engine move (``step s0``, ``deliver cw->s1#0``)."""
    if isinstance(event, DeliverEvent):
        m = event.message
        return f"deliver {m.src}->{m.dst}#{m.link_seq}"
    return f"{'step' if isinstance(event, StepEvent) else 'invoke'} {event.pid}"


#: β_new / ρ_new of the round that concludes, per candidate new server,
#: recorded when replay still went through a separate command log:
#: protocol -> (params, max_k, construction, k, {new server: moves})
GOLDEN_SPLICES = {
    "fastclaim": ({}, 4, "gamma", 1, {
        "s0": ["invoke cw", "step cw", "deliver cw->s0#1", "step s0"],
        "s1": ["invoke cw", "step cw", "deliver cw->s1#1", "step s1"],
    }),
    "handshake": ({"sync_hops": 2}, 6, "delta", 4, {
        "s0": ["deliver s1->s0#1", "step s0"],
        "s1": [],
    }),
}


class TestSplicing:
    def test_filters(self):
        # synthetic fragment: cw sends to s1 (kept), s0 steps removed
        step = lambda pid, sent=(): StepEvent(index=0, pid=pid, received=(), sent=sent)
        m_to_s0 = Message(0, "cw", "s0", 0, None)
        m_to_s1 = Message(1, "cw", "s1", 0, None)
        events = [
            InvokeEvent(index=0, pid="cw", txn="txn"),
            step("cw", (m_to_s0, m_to_s1)),
            DeliverEvent(index=0, message=m_to_s0),
            step("s0"),
            DeliverEvent(index=0, message=m_to_s1),
            step("s1"),
        ]
        out = splice_new(RecordedFragment(events), "cw", "s1", ("s0", "s1"))
        # prefix = first two events (through cw's send to s1)
        assert out == [events[0], events[1], events[4], events[5]]

    def test_no_cw_sends_means_suffix_only(self):
        step = lambda pid: StepEvent(index=0, pid=pid, received=(), sent=())
        deliver = DeliverEvent(index=0, message=Message(9, "s0", "s1", 3, None))
        frag = RecordedFragment([step("s0"), step("s1"), deliver])
        out = splice_new(frag, "cw", "s1", ("s0", "s1"))
        assert out == [step("s1"), deliver]

    @pytest.mark.parametrize("protocol", sorted(GOLDEN_SPLICES))
    def test_splice_matches_golden_moves(self, protocol, monkeypatch):
        import repro.core.induction as induction

        params, max_k, construction, k, golden = GOLDEN_SPLICES[protocol]
        seen = []

        def spy(fragment, cw, new_server, servers):
            seen.append((fragment, cw, servers))
            return splice_new(fragment, cw, new_server, servers)

        monkeypatch.setattr(induction, "splice_new", spy)
        tsys = prepare_theorem_system(protocol, **params)
        verdict = run_induction(tsys, max_k=max_k)
        assert verdict.outcome == CAUSAL_VIOLATION
        assert (verdict.witness.construction, verdict.k_reached) == (construction, k)
        fragment, cw, servers = seen[0]
        got = {
            s: [_label(e) for e in splice_new(fragment, cw, s, servers)]
            for s in servers
        }
        assert got == golden


# ---------------------------------------------------------------------------
# the induction and the theorem drivers
# ---------------------------------------------------------------------------


class TestInduction:
    def test_fastclaim_violation_at_k1(self):
        tsys = prepare_theorem_system("fastclaim")
        verdict = run_induction(tsys, max_k=4)
        assert verdict.outcome == CAUSAL_VIOLATION
        assert verdict.k_reached == 1
        w = verdict.witness
        assert w is not None and w.is_mixed()
        assert w.anomalies  # confirmed by the checker

    @pytest.mark.parametrize("hops", [1, 2])
    def test_handshake_depth_scales(self, hops):
        tsys = prepare_theorem_system("handshake", sync_hops=hops)
        verdict = run_induction(tsys, max_k=2 * hops + 2)
        assert verdict.outcome == CAUSAL_VIOLATION
        assert verdict.k_reached == 2 * hops
        assert len(verdict.forced_messages) == 2 * hops

    def test_handshake_unbounded_with_small_budget(self):
        tsys = prepare_theorem_system("handshake", sync_hops=8)
        verdict = run_induction(tsys, max_k=3)
        assert verdict.outcome == UNBOUNDED_VISIBILITY
        assert len(verdict.forced_messages) == 3

    def test_forced_messages_alternate_servers(self):
        tsys = prepare_theorem_system("handshake", sync_hops=3)
        verdict = run_induction(tsys, max_k=10)
        senders = [f.split("explicit: ")[1].split(" ->")[0] for f in verdict.forced_messages]
        assert senders == ["s1", "s0", "s1", "s0", "s1", "s0"]

    def test_two_server_engine_rejects_more_servers(self):
        tsys = prepare_theorem_system(
            "fastclaim", objects=("X0", "X1", "X2"), n_servers=3
        )
        with pytest.raises(ValueError):
            run_induction(tsys)


class TestTheoremDriver:
    def test_verdict_mapping(self):
        expected = {
            "cops": NO_MULTI_WRITE,
            "cops_snow": NO_MULTI_WRITE,
            "wren": NOT_FAST,
            "fastclaim": CAUSAL_VIOLATION,
        }
        for proto, want in expected.items():
            verdict = check_impossibility(proto, max_k=3)
            assert verdict.outcome == want, verdict.describe()
            assert verdict.consistent_with_theorem

    def test_fast_report_attached(self):
        v = check_impossibility("cops_snow", max_k=2)
        assert v.fast_report is not None
        assert v.fast_report.fast  # COPS-SNOW really is fast

    def test_not_fast_details(self):
        v = check_impossibility("spanner", max_k=2)
        assert v.outcome == NOT_FAST
        assert "non-blocking" in v.detail

    def test_cops_rw_gives_up_one_value(self):
        v = check_impossibility("cops_rw", max_k=2)
        assert v.outcome == NOT_FAST
        assert "one-value" in v.detail

    def test_describe_is_readable(self):
        v = check_impossibility("fastclaim", max_k=2)
        text = v.describe()
        assert "CAUSAL_VIOLATION" in text and "mix" in text


def measure_fast_rot(protocol):
    """The theorem driver's fast-ROT probe run."""
    return measure(protocol, DEFAULT_FAST_SPEC, check=False)


class TestMeasureFastRot:
    def test_cops_snow_fast(self):
        r = measure_fast_rot("cops_snow")
        assert r.fast and r.max_rounds == 1 and r.n_blocked == 0

    def test_wren_two_rounds(self):
        r = measure_fast_rot("wren")
        assert not r.fast and r.max_rounds == 2 and r.nonblocking

    def test_gentlerain_blocks(self):
        r = measure_fast_rot("gentlerain")
        assert not r.nonblocking

    def test_calvin_hops(self):
        r = measure_fast_rot("calvin")
        assert r.max_hops >= 3 and not r.one_round

    @pytest.mark.parametrize("protocol", ["calvin", "cops_snow", "wren", "eiger"])
    def test_per_rot_fast_agrees(self, protocol):
        # the run's verdicts are TxnStats' per-ROT predicates over every
        # ROT of the probe run, here analyzed afresh from its own trace
        report = measure_fast_rot(protocol)
        system = build_system(protocol, objects=("X0", "X1", "X2", "X3"), n_servers=2)
        with system.sim.recording() as events:
            history = run_workload(system, DEFAULT_FAST_SPEC)
        stats = analyze_transactions(events, history, servers=system.servers)
        rots = [s for s in stats.values() if s.read_only]
        assert rots and report.n_rots == len(rots)
        assert report.one_round == all(s.one_round for s in rots)
        assert report.fast == all(s.fast for s in rots)
        if protocol == "calvin":
            # every calvin ROT goes through the sequencer (3 hops)
            assert not any(s.fast for s in rots)

    def test_describe(self):
        assert "fast" in measure_fast_rot("cops_snow").describe()


class TestGeneralTheorem:
    def test_three_servers_disjoint(self):
        v = check_impossibility_general(
            "fastclaim", objects=("X0", "X1", "X2"), n_servers=3, max_k=3
        )
        assert v.outcome == CAUSAL_VIOLATION
        assert v.witness.is_mixed()

    def test_partial_replication(self):
        v = check_impossibility_general(
            "fastclaim",
            objects=("X0", "X1", "X2", "X3"),
            n_servers=4,
            replication=2,
            max_k=3,
        )
        assert v.outcome == CAUSAL_VIOLATION

    def test_full_replication_rejected(self):
        with pytest.raises(ValueError, match="partial replication"):
            check_impossibility_general(
                "fastclaim", objects=("X0", "X1"), n_servers=2, replication=2
            )

    def test_handshake_general(self):
        v = check_impossibility_general(
            "handshake",
            objects=("X0", "X1", "X2"),
            n_servers=3,
            max_k=16,
            sync_hops=1,
        )
        assert v.outcome == CAUSAL_VIOLATION
        assert v.forced_messages

    def test_no_wtx_general(self):
        v = check_impossibility_general(
            "cops_snow", objects=("X0", "X1", "X2"), n_servers=3
        )
        assert v.outcome == NO_MULTI_WRITE


class TestIndistinguishability:
    """Observation 1(2): only c_r and p_i take steps in σ_old, so the
    configurations before and after are indistinguishable to c_w and
    p_{1-i} — executable, by comparing their full process states."""

    @staticmethod
    def _state(sim, pid):
        from repro.sim.snapshot import dumps_canonical

        # by value: a raw pickle also encodes which equal strings are one
        # object, and that differs between a process restored from a
        # snapshot and one that ran on (docs/model.md, "fingerprint")
        return dumps_canonical(sim.processes[pid].__getstate__())

    def test_sigma_old_invisible_to_cw_and_new_server(self):
        tsys = prepare_theorem_system("fastclaim")
        sim = tsys.sim
        before_cw = self._state(sim, tsys.cw)
        before_new = self._state(sim, "s1")
        run_sigma_old(
            sim, tsys.probes[1], tsys.objects, ["s0"], ["s1"], txid="t"
        )
        assert self._state(sim, tsys.cw) == before_cw
        assert self._state(sim, "s1") == before_new
        # ... while the participants genuinely changed
        assert self._state(sim, tsys.probes[1]) != self._state(sim, tsys.cw)

    def test_splice_preserves_new_server_view(self):
        """After replaying β_new, the kept server's state must equal its
        state in the unspliced run (the indistinguishability the paper's
        legality argument rests on)."""
        from repro.core.splicing import RecordedFragment, splice_new
        from repro.sim.scheduler import RoundRobinScheduler

        tsys = prepare_theorem_system("fastclaim")
        sim = tsys.sim
        c0 = tsys.c0
        # record β: Tw solo to quiescence
        with sim.recording() as events:
            sim.invoke(tsys.cw, tsys.tw())
            RoundRobinScheduler().run(
                sim, pids=(tsys.cw, "s0", "s1"), max_events=10_000
            )
        fragment = RecordedFragment(events)
        after_full = self._state(sim, "s1")
        # replay β_new (s0's steps removed) from C0
        sim.restore(c0)
        beta_new = splice_new(fragment, tsys.cw, "s1", ("s0", "s1"))
        sim.replay(beta_new, strict=True)
        assert self._state(sim, "s1") == after_full
        # and s0 saw nothing at all
        sim2_state = self._state(sim, "s0")
        sim.restore(c0)
        assert sim2_state == self._state(sim, "s0")
