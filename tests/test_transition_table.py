"""The transition table: a step taken before is replayed, not re-run.

Under a journal, ``Step.apply`` first asks ``Simulation.reuse_step``,
which replays a transition seen before (same pre-state record and
inbox, and the same step index if that step read ``ctx.step_index``)
from ``Snapshotter._transitions``, swapping in the interned object of
its post-state; only a step not seen runs ``on_step``, on a copy.  These tests hold a replayed step to a freshly
executed one, event by event and over whole explorations, and check
that no interned object changed in place is ever handed out.
"""

import importlib.util
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.explore import explore, explore_write_read_race
from repro.core.setup import prepare_theorem_system
from repro.protocols.registry import protocol_names
from repro.sim.events import Deliver, Step, enabled_events
from repro.sim.executor import Simulation
from repro.sim.trace import StepEvent
from repro.sim.scheduler import RoundRobinScheduler
from repro.sim.snapshot import DeepCopySnapshotter, Snapshotter, dumps_canonical
from repro.txn.types import read_only_txn

from helpers import race_system, result_key


_SMOKE = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_smoke.py"
_spec = importlib.util.spec_from_file_location("bench_smoke", _SMOKE)
bench_smoke = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_smoke)
Forgetful, interned_drift = bench_smoke.Forgetful, bench_smoke.interned_drift


@pytest.fixture
def no_table(monkeypatch):
    """Switch the transition table off for every simulation built after."""

    def off():
        real = Snapshotter.__init__

        def init(self, counters):
            real(self, counters)
            self._transitions = Forgetful()

        monkeypatch.setattr(Snapshotter, "__init__", init)

    return off


def step_view(sim: Simulation, event: StepEvent):
    """What one step must give alike, replayed or executed."""
    return dict(
        fp=sim.fingerprint(),
        fp_canon=sim.fingerprint(canonical=True),
        event_count=sim.event_count,
        received=[(m, id(m.payload)) for m in event.received],
        sent=[
            (m.msg_id, m.dst, m.link_seq, dumps_canonical(m.payload))
            for m in event.sent
        ],
    )


@pytest.mark.parametrize("protocol", protocol_names())
@settings(max_examples=5, deadline=None)
@given(moves=st.lists(st.integers(0, 9), min_size=10, max_size=40))
def test_a_replayed_step_is_the_executed_one(protocol, moves):
    """A journaled walk (0: undo the innermost mark, 1: mark, else the
    drawn enabled event).  Each drawn step is first taken from one mark
    twice — with the table as the walk left it, and with an empty one
    — and both give the same fingerprints under both keyings, the same
    event count and the same received and sent messages.  After every
    move each interned object the table would hand out still holds its
    record's state."""
    sim, pids = race_system(protocol)
    caches = sim._snapshotters["bytes"]
    marks = [sim.mark()]
    for move in moves:
        events = enabled_events(sim, pids)
        if move == 0 and len(marks) > 1:
            sim.restore(marks.pop())
        elif move == 1:
            marks.append(sim.mark())
        elif events:
            e = events[move % len(events)]
            if e.__class__ is Step:
                views = []
                for table in (caches._transitions, {}):
                    kept, caches._transitions = caches._transitions, table
                    mark = sim.mark()
                    with sim.recording() as applied:
                        e.apply(sim)
                    views.append(step_view(sim, *applied))
                    sim.restore(mark)
                    caches._transitions = kept
                assert views[0] == views[1], (protocol, e)
            e.apply(sim)
        assert not interned_drift(sim)
    sim.restore(marks[0])
    assert not interned_drift(sim)


def test_a_forward_step_leaves_interned_objects_alone(no_table):
    """Journaled steps leave interned objects live in the simulation;
    dropping the journal detaches them, so the forward steps that follow
    change private objects in place and no record's object drifts.  The
    table is off: the journaled steps all run ``on_step``."""
    no_table()
    sim, pids = race_system("cops")
    sim.mark()
    for _ in range(8):
        enabled_events(sim, pids)[-1].apply(sim)  # a step while one is enabled
    assert sim.counters.steps_reused == 0 and not interned_drift(sim)
    sim.drop_journal()
    sched = RoundRobinScheduler()
    for _ in range(30):
        sched.tick(sim, pids=pids)
        assert not interned_drift(sim)


def test_a_step_that_never_read_its_index_is_replayed_at_another():
    """One pre-state and inbox, two step indices.  The writer's begin
    step reads ``ctx.step_index`` (its invocation stamp), so it runs
    ``on_step`` at both and the stamps differ; at its first index again
    it is replayed.  A server step never reads the index, so the second
    index replays it, with the same sends."""
    sim, pids = race_system("cops")
    cw, probe = pids[:2]
    counters = sim.counters
    base = sim.mark()
    Step(cw).apply(sim)
    stamp = sim.processes[cw].current.invoked_at
    sim.restore(base)
    Step(probe).apply(sim)  # another process's step moves the index on
    Step(cw).apply(sim)
    assert counters.steps_reused == 0
    assert sim.processes[cw].current.invoked_at == stamp + 1
    sim.restore(base)
    Step(cw).apply(sim)
    assert counters.steps_reused == 1
    assert sim.processes[cw].current.invoked_at == stamp

    put = next(e for e in enabled_events(sim, pids) if e.__class__ is Deliver)
    put.apply(sim)
    server, at = put.dst, sim.mark()
    Step(server).apply(sim)
    executed = [(m.dst, m.payload) for m in sim.network.pending() if m.src == server]
    sim.restore(at)
    Step(probe).apply(sim)
    Step(server).apply(sim)
    assert counters.steps_reused == 2
    replayed = [(m.dst, m.payload) for m in sim.network.pending() if m.src == server]
    assert replayed == executed != []


def test_an_undo_never_puts_back_an_object_the_caller_holds():
    """A caller keeps ``sim.processes[pid]`` across a journaled step and
    writes to it.  The undo places a fresh load of the pre-state, not
    the held object, so the write stays out of the simulation and out of
    every interned object."""
    sim, pids = race_system("cops")
    mark = sim.mark()
    step = next(e for e in enabled_events(sim, pids) if e.__class__ is Step)
    held = sim.processes[step.pid]
    step.apply(sim)
    held.noise = "written after the step"
    sim.restore(mark)
    back = sim.processes[step.pid]
    assert back is not held
    assert not hasattr(back, "noise")
    assert not interned_drift(sim)


def oracle_view(sim: Simulation):
    """The live configuration's prints, bytes path and oracle, both keyings."""
    return [
        (sim.fingerprint(canonical=c),
         DeepCopySnapshotter().digest(sim.processes, sim.network, c))
        for c in (False, True)
    ]


def assert_no_stale_cache(sim: Simulation):
    for fp, want in oracle_view(sim):
        assert fp == want
    assert not interned_drift(sim)


def journaled_segment(sim, pids, moves):
    """Mark, apply events (0: undo the innermost mark, 1: mark, else the
    drawn enabled event), restore a drawn mark or none, drop the journal."""
    marks = [sim.mark()]
    for move in moves:
        events = enabled_events(sim, pids)
        if move == 0 and len(marks) > 1:
            sim.restore(marks.pop())
        elif move == 1:
            marks.append(sim.mark())
        elif events:
            events[move % len(events)].apply(sim)
        assert_no_stale_cache(sim)
    if moves[0] % 2:
        sim.restore(marks[moves[0] % len(marks)])
    sim.drop_journal()
    assert_no_stale_cache(sim)


def forward_segment(sim, pids, moves):
    """Events with no journal (0: invoke a read at the probe, 1: write an
    attribute of a drawn process outside any event, else the drawn
    enabled event: a step or a delivery)."""
    for n, move in enumerate(moves):
        events = enabled_events(sim, pids)
        if move == 0:
            sim.invoke(pids[1], read_only_txn(("X0", "X1"), txid=f"Tf{n}"))
        elif move == 1:
            sim.processes[pids[n % len(pids)]].noise = n
        elif events:
            events[move % len(events)].apply(sim)
        assert_no_stale_cache(sim)


@settings(max_examples=50, deadline=None)
@given(
    protocol=st.sampled_from(protocol_names()),
    journaled_first=st.booleans(),
    segments=st.lists(
        st.lists(st.integers(0, 9), min_size=1, max_size=10), min_size=2, max_size=5
    ),
)
def test_the_journal_hands_off_to_forward_runs(protocol, journaled_first, segments):
    """Journaled and forward segments alternate on one simulation.  A
    forward segment writes processes in place, also outside any event,
    and starts from whatever the journal left live, interned objects
    included.  At every point both keyings of the fingerprint are the
    oracle's, and no interned object has changed in place."""
    sim, pids = race_system(protocol)
    for n, moves in enumerate(segments):
        if (n % 2 == 0) == journaled_first:
            journaled_segment(sim, pids, moves)
        else:
            forward_segment(sim, pids, moves)


def cops3():
    tsys = prepare_theorem_system(
        "cops", objects=("X0", "X1", "X2"), n_servers=3, n_probes=2
    )
    return tsys.system, tsys.race_script()  # COPS: one write per object


#: (protocol, keying, scope): fastclaim and cops, strict and POR, under
#: a state budget and run to the end of their depth bound
MATRIX = [
    (protocol, por, scope)
    for protocol in ("fastclaim", "cops")
    for por in (False, True)
    for scope in ("budget", "exhaustive")
]


def run_matrix_row(protocol, por, scope):
    kw = dict(por=por, first_violation_only=False)
    if scope == "budget":
        kw.update(max_depth=30, max_states=400)
    else:  # strict runs end at a depth that keeps the scope small
        kw.update(max_depth=40 if por else 12, max_states=60_000)
    return explore_write_read_race(protocol, **kw)


def reuse_key(r):
    c = r.counters
    return result_key(r), r.checks, c.fingerprints, c.restores


@pytest.mark.parametrize("protocol,por,scope", MATRIX)
def test_the_table_moves_no_count(no_table, protocol, por, scope):
    """With the table and without it (every step executed), every count,
    trail, anomaly and check is equal, and so are the fingerprints and
    restores taken; only the table run replays steps."""
    on = run_matrix_row(protocol, por, scope)
    no_table()
    off = run_matrix_row(protocol, por, scope)
    if scope == "exhaustive" and por:
        assert on.truncated == 0
    assert reuse_key(on) == reuse_key(off)
    assert on.counters.steps_reused > 0 == off.counters.steps_reused


def test_the_pool_moves_no_count_with_the_table(no_table):
    """The same pair on a ``workers=2`` pool over cops/3 (exhaustive,
    POR): the workers' merged ledgers replay steps too."""
    kw = dict(por=True, workers=2, first_violation_only=False, max_depth=60)
    on = explore(*cops3(), **kw)
    no_table()
    off = explore(*cops3(), **kw)
    assert not on.auto_serial and not off.auto_serial
    assert reuse_key(on) == reuse_key(off)
    assert on.counters.steps_reused > 0 == off.counters.steps_reused
