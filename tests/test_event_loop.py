"""The event loop's contract: the schedule a seed yields, what "enabled"
means, the slotted event records, and ``run_workload``'s bookkeeping."""

import copy
import dataclasses
import gc
import hashlib
import pickle
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols import build_system, get_protocol
from repro.protocols.cops_geo import build_geo_system
from repro.protocols.registry import REGISTRY
from repro.sim.events import Deliver, Step, enabled_events
from repro.sim.executor import SNAPSHOT_MODES, Simulation, use_snapshot_mode
from repro.sim.messages import Message
from repro.sim.process import Process
from repro.sim.scheduler import (
    RandomScheduler,
    RoundRobinScheduler,
    run_until_quiescent,
)
from repro.sim.snapshot import dumps_canonical
from repro.sim.trace import DeliverEvent, InvokeEvent, StepEvent
from repro.txn.types import read_only_txn
from repro.workloads import WorkloadSpec, run_workload
from repro.workloads.generators import WorkloadStalled

from helpers import Echo, Note, Pinger

# ---------------------------------------------------------------------------
# the schedule is pinned
# ---------------------------------------------------------------------------

MIXES = {
    "read_heavy": dict(read_ratio=0.95),
    "write_heavy": dict(read_ratio=0.1, rw_ratio=0.1),
}

#: (trace length, events applied, blake2b-128 over the ``repr`` of every
#: event of a window opened around ``run_workload``), recorded from the
#: commit before the event loop was made cheap.  One protocol per
#: client family: ``ClientBase`` direct, ``VectorSnapshotClient`` + 2PC,
#: and the RW-capable lock-based client.
GOLDEN = {
    ("cops", "read_heavy", "random"): (655, 595, "5e32bff2d108f0ebd99278c7f477c2e8"),
    ("cops", "write_heavy", "random"): (552, 492, "7ae5419bffc9d5e1c263ab4389729ae7"),
    ("cure", "read_heavy", "random"): (1350, 1290, "35835ffe9f469562a797644bf608590f"),
    ("cure", "write_heavy", "random"): (1165, 1105, "984c699b30192c45734b47967a6ddc84"),
    ("spanner", "read_heavy", "random"): (793, 733, "3f130432987634db01ae852c4a98b06d"),
    ("spanner", "write_heavy", "random"): (1356, 1296, "ae22c084220451589ea7655fa368ef54"),
    ("cops", "write_heavy", "round_robin"): (416, 356, "b27180232651a00da249cc8c068366c7"),
}


@pytest.mark.parametrize("protocol,mix,scheduler", sorted(GOLDEN))
def test_seeded_run_yields_the_recorded_trace(protocol, mix, scheduler):
    system = build_system(protocol, objects=("X0", "X1", "X2", "X3"), n_servers=2)
    spec = WorkloadSpec(n_txns=60, read_size=(2, 3), seed=4100, **MIXES[mix])
    sched = RoundRobinScheduler() if scheduler == "round_robin" else None
    with system.sim.recording() as events:
        run_workload(system, spec, scheduler=sched)
    digest = hashlib.blake2b(digest_size=16)
    for event in events:
        digest.update(repr(event).encode())
        digest.update(b"\n")
    got = (len(events), system.sim.event_count, digest.hexdigest())
    assert got == GOLDEN[protocol, mix, scheduler]


#: (messages sent, blake2b-128 over the states and the wire bytes) of a
#: seeded run of every registered protocol and of geo-replicated COPS.
#: ``GOLDEN`` hashes only ``repr(event)`` -- pids and message ids -- so it
#: cannot see a payload or a process state change; this table can.
PAYLOAD_GOLDEN = {
    ("calvin", "read_heavy"): (243, "aff2f54de5faf378c17a120095f00b54"),
    ("calvin", "write_heavy"): (220, "41a976700f8e9a068767338c0b0e9ba0"),
    ("contrarian", "read_heavy"): (330, "279e0fbb504cbefca92ed02553e4aace"),
    ("contrarian", "write_heavy"): (228, "983ec2c3219236d83de0258d8753b04e"),
    ("cops", "read_heavy"): (206, "254e2ff59180e2f8abf6ab914e9c4674"),
    ("cops", "write_heavy"): (132, "317722b18f1da2defe4c510288015984"),
    ("cops_rw", "read_heavy"): (212, "1c84edfc984ae4429ce87b3cfba43959"),
    ("cops_rw", "write_heavy"): (160, "842a1196b424e0260ee62094687aacfe"),
    ("cops_snow", "read_heavy"): (212, "8506c02fbd3dd801e73dc3556d7dd69c"),
    ("cops_snow", "write_heavy"): (180, "6d62d48ec70520a8b4814fab91bd66db"),
    ("cure", "read_heavy"): (446, "5121958f22b4f19a3f991e141fa459db"),
    ("cure", "write_heavy"): (398, "d5ad7e9b218ebdb0fd583762773ca233"),
    ("eiger", "read_heavy"): (222, "9d51c67e9d2990d1b5d59e8e75a71aa6"),
    ("eiger", "write_heavy"): (298, "47d3a5ca326760de1b5cc3d2b2402107"),
    ("fastclaim", "read_heavy"): (212, "fb7723df37a42a5560c3b5ed012eeb76"),
    ("fastclaim", "write_heavy"): (186, "adf08b8284cd9afe2088c11da57b3e57"),
    ("gentlerain", "read_heavy"): (371, "9af328eb774a83217ea7ec2a4dc849bf"),
    ("gentlerain", "write_heavy"): (228, "d9d234a8b05f3ab8dd105427d040b20a"),
    ("handshake", "read_heavy"): (217, "0b78bbf2c012d429dd20e008aca5836f"),
    ("handshake", "write_heavy"): (235, "36b7b613f636f3d261e78f6fc34c02ab"),
    ("occult", "read_heavy"): (220, "2c78be89bf2602500a60e392c5967b90"),
    ("occult", "write_heavy"): (240, "c92ac83d42530864860cc975849caf32"),
    ("orbe", "read_heavy"): (418, "c2e696a070167d69616912d8b64e4819"),
    ("orbe", "write_heavy"): (220, "58295a06af647d1267d09567615c38f9"),
    ("ramp", "read_heavy"): (222, "feb69bcdc5010d42e6956b7a722fb573"),
    ("ramp", "write_heavy"): (298, "ba9055f9027a26b89c0e607defaeb112"),
    ("ramp_small", "read_heavy"): (424, "a24e171c8ed714d5aff3166d9c6c7ccf"),
    ("ramp_small", "write_heavy"): (320, "5619c296d0109ac79aa9fd677d436b85"),
    ("spanner", "read_heavy"): (213, "5d4be5a7af8df0cdccf15277c488067a"),
    ("spanner", "write_heavy"): (198, "f7f85fead67eec61a29b0c877bf39c7a"),
    ("swiftcloud", "read_heavy"): (243, "ab7848505aae09a4462af34c4f4bfd81"),
    ("swiftcloud", "write_heavy"): (389, "2edcf56391c5223439c3299dc8926f4d"),
    ("wren", "read_heavy"): (355, "deccb852528d203464d4997fe465bced"),
    ("wren", "write_heavy"): (412, "3c1d555ff6c9bd02a00cf42efe25099f"),
    ("cops_geo", "read_heavy"): (216, "43f376c9075adc8e3f3177f7887b7362"),
    ("cops_geo", "write_heavy"): (352, "04373ea23d1c7658eb1eea200b258663"),
}


class _SamplingScheduler(RandomScheduler):
    """The workload's default scheduler, hashing the state every 10th tick."""

    def __init__(self, seed, digest):
        super().__init__(seed)
        self.digest = digest
        self.ticks = 0

    def tick(self, sim, pids=None):
        self.ticks += 1
        if self.ticks % 10 == 0:
            self.digest.update(sim.fingerprint())
        return super().tick(sim, pids)


@pytest.mark.parametrize("protocol,mix", sorted(PAYLOAD_GOLDEN))
def test_seeded_run_sends_the_recorded_bytes(protocol, mix):
    objects = ("X0", "X1", "X2", "X3")
    if protocol == "cops_geo":
        system = build_geo_system(objects=objects)
    else:
        system = build_system(protocol, objects=objects, n_servers=2)
    spec = WorkloadSpec(n_txns=60, read_size=(2, 3), seed=4100, **MIXES[mix])
    digest = hashlib.blake2b(digest_size=16)
    with system.sim.recording() as events:
        run_workload(system, spec, scheduler=_SamplingScheduler(spec.seed, digest))
    sent = [
        msg.payload
        for event in events
        if isinstance(event, StepEvent)
        for msg in event.sent
    ]
    for payload in sent:
        digest.update(dumps_canonical(payload))
    digest.update(system.sim.fingerprint())
    assert (len(sent), digest.hexdigest()) == PAYLOAD_GOLDEN[protocol, mix]


# ---------------------------------------------------------------------------
# events are kept only in the windows a caller opens
# ---------------------------------------------------------------------------


def test_a_run_with_no_window_open_keeps_no_event():
    """Every step event a forward ``run_workload`` builds dies with the
    call that returned it."""
    system = build_system("cops", objects=("X0", "X1", "X2", "X3"), n_servers=2)
    sim, refs = system.sim, []

    def step(pid, real=sim.step):
        event = real(pid)
        refs.append(weakref.ref(event))
        return event

    sim.step = step
    run_workload(system, WorkloadSpec(n_txns=20, read_size=(2, 3), seed=4100))
    gc.collect()
    assert refs and all(ref() is None for ref in refs)


def test_windows_nest_and_indices_run_on():
    """An event reaches every open window; ``index`` counts every event
    the simulation applied, recorded or not."""
    sim = Simulation([Pinger("p", "e", n=2), Echo("e")])
    sim.step("p")  # index 0, in no window
    with sim.recording() as outer:
        sim.deliver("p", "e")
        with sim.recording() as inner:
            sim.step("e")
        sim.deliver("e", "p")
    with sim.recording() as later:
        sim.step("p")
    assert [e.index for e in outer] == [1, 2, 3]
    assert len(inner) == 1 and inner[0] is outer[1]
    assert [e.index for e in later] == [4] and sim.events_applied == 5


def test_a_recorded_window_replays_identically():
    system = build_system("cops", objects=("X0", "X1", "X2", "X3"), n_servers=2)
    sim = system.sim
    start = sim.snapshot()
    with sim.recording() as first:
        run_workload(system, WorkloadSpec(n_txns=20, read_size=(2, 3), seed=4100))
    end = sim.fingerprint()
    sim.restore(start)
    with sim.recording() as again:
        sim.replay(first)
    assert sim.fingerprint() == end
    # the same events, message ids included; only the indices run on
    assert [repr(e).split("] ", 1)[1] for e in again] == [
        repr(e).split("] ", 1)[1] for e in first
    ]
    assert [e.index for e in again] == [e.index + len(first) for e in first]


# ---------------------------------------------------------------------------
# pending() and enabled_events against their definitions
# ---------------------------------------------------------------------------

PIDS = ("a", "b", "c", "d")


class Flag(Process):
    """Wants a step exactly when told to."""

    def __init__(self, pid):
        super().__init__(pid)
        self.wants = False

    def wants_step(self):
        return self.wants

    def on_step(self, ctx, inbox):
        return None


_pid = st.sampled_from(PIDS)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("post"), _pid, _pid),
        st.tuples(st.just("deliver"), st.integers(0, 50)),
        st.tuples(st.just("drain"), _pid),
        st.tuples(st.just("want"), _pid, st.booleans()),
    ),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(ops=_ops, solo=st.lists(_pid, unique=True))
def test_enabled_set_matches_its_definition(ops, solo):
    sim = Simulation([Flag(p) for p in PIDS])
    net = sim.network
    transit = []  # the model: every queued message, in send order
    income = {p: [] for p in PIDS}
    sent = 0
    for op in ops:
        if op[0] == "post" and op[1] != op[2]:
            msg = Message(
                sent, op[1], op[2], net.next_link_seq(op[1], op[2]), Note(sent)
            )
            sent += 1
            net.post(msg)
            transit.append(msg)
        elif op[0] == "deliver" and transit:
            msg = transit.pop(op[1] % len(transit))
            net.deliver(msg.src, msg.dst, msg.link_seq)
            income[msg.dst].append(msg)
        elif op[0] == "drain":
            assert sorted(net.drain_income(op[1]), key=id) == sorted(income[op[1]], key=id)
            income[op[1]] = []
        elif op[0] == "want":
            sim.processes[op[1]].wants = op[2]

        by_id = sorted(transit, key=lambda m: m.msg_id)
        for src in (None,) + PIDS:
            for dst in (None,) + PIDS:
                assert net.pending(src=src, dst=dst) == [
                    m for m in by_id
                    if (src is None or m.src == src) and (dst is None or m.dst == dst)
                ]
        for pids in (None, tuple(solo)):
            group = PIDS if pids is None else pids
            assert enabled_events(sim, pids) == [
                Deliver(m.src, m.dst, m.link_seq) for m in by_id if m.dst in group
            ] + [
                Step(p) for p in group if income[p] or sim.processes[p].wants
            ]


# ---------------------------------------------------------------------------
# slotted records survive the pool
# ---------------------------------------------------------------------------

_MSG = Message(7, "a", "b", 2, Note("x"))
_TXN = read_only_txn(("X0", "X1"), txid="T")
RECORDS = [
    _MSG,
    StepEvent(index=3, pid="a", received=(_MSG,), sent=()),
    DeliverEvent(index=4, message=_MSG),
    InvokeEvent(index=5, pid="c0", txn=_TXN),
    Deliver("a", "b", 2),
    Step("a"),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_slotted_record_round_trips_and_is_frozen(record):
    assert not hasattr(record, "__dict__")
    for clone in (pickle.loads(pickle.dumps(record, 5)), copy.deepcopy(record)):
        assert type(clone) is type(record)
        assert clone == record and hash(clone) == hash(record)
        assert repr(clone) == repr(record)
    field = dataclasses.fields(record)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, field, getattr(record, field))
    # a name that is no field: no slot to hold it (3.11 reports it through
    # the frozen __setattr__'s stale super() as a TypeError)
    with pytest.raises((AttributeError, TypeError)):
        record.extra = 1


def test_message_payload_stays_outside_equality():
    other = dataclasses.replace(_MSG, payload=Note("y"))
    assert other == _MSG and hash(other) == hash(_MSG)
    clone = pickle.loads(pickle.dumps(_MSG, 5))
    assert clone.payload.token == "x"


def test_sleep_set_of_events_survives_pickling():
    sleep = frozenset({Deliver("a", "b", 0), Step("a"), Step("b")})
    assert pickle.loads(pickle.dumps(sleep, 5)) == sleep


class Keeper(Process):
    """Holds every message it ever received in its state."""

    def __init__(self, pid):
        super().__init__(pid)
        self.kept = []

    def on_step(self, ctx, inbox):
        self.kept.extend(inbox)


@pytest.mark.parametrize("mode", SNAPSHOT_MODES)
def test_message_held_by_a_process_survives_snapshot_restore(mode):
    with use_snapshot_mode(mode):
        sim = Simulation([Pinger("p", "k", n=3), Keeper("k")])
        sim.step("p")
        sim.deliver("p", "k")
        sim.step("k")
        kept = list(sim.processes["k"].kept)
        assert [m.payload.token for m in kept] == [3]
        snap = sim.snapshot()
        fp = sim.fingerprint()
        run_until_quiescent(sim)
        assert len(sim.processes["k"].kept) == 3
        sim.restore(snap)
        restored = sim.processes["k"].kept
        assert restored == kept
        assert [m.payload.token for m in restored] == [3]
        assert sim.fingerprint() == fp


# ---------------------------------------------------------------------------
# run_workload's bookkeeping
# ---------------------------------------------------------------------------


def _system():
    return build_system("cops", objects=("X0", "X1"), n_servers=2)


def test_event_budget_is_exact():
    spec = WorkloadSpec(n_txns=12, seed=5)
    full = _system()
    run_workload(full, spec)
    needed = full.sim.event_count

    exact = _system()
    assert len(run_workload(exact, spec, max_events=needed)) == 12

    for budget in (needed - 1, 5):
        short = _system()
        with pytest.raises(WorkloadStalled, match="budget"):
            run_workload(short, spec, max_events=budget)
        assert short.sim.event_count == budget


def test_registered_rw_capable_protocol_receives_rw_transactions():
    """RW support is the registry's ``supports_rw``, not a list of names."""
    spec = WorkloadSpec(n_txns=40, read_ratio=0.2, rw_ratio=0.6, seed=9)

    def rw_count(protocol):
        system = build_system(protocol, objects=("X0", "X1", "X2"), n_servers=2)
        history = run_workload(system, spec)
        return sum(1 for r in history if r.txn.read_set and r.txn.writes)

    assert rw_count("cops") == 0
    REGISTRY["rw_probe"] = dataclasses.replace(get_protocol("spanner"), name="rw_probe")
    try:
        assert rw_count("rw_probe") == rw_count("spanner") > 0
    finally:
        del REGISTRY["rw_probe"]
    # every workload generated before the flag existed is unchanged
    assert {n for n, info in REGISTRY.items() if info.supports_rw} == {
        "spanner", "calvin", "fastclaim",
    }
