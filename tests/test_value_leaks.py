"""The value-leak detector.

The one-value monitor trusts payloads to declare the written values they
carry through ``Payload.value_fields``.  These tests make that trust
verifiable: every workload value is a uniquely recognizable sentinel
string, and after a run every server→client message payload is scanned
(structurally, through all containers and dataclasses) for sentinel
values that are *not* reachable through the declared value fields.
A protocol smuggling values through metadata would fail here.
"""

import pytest

from repro.protocols import build_system, protocol_names
from repro.sim.messages import Payload
from repro.sim.trace import StepEvent
from repro.workloads import WorkloadSpec, run_workload


def iter_strings(obj, _depth=0):
    """Yield every string embedded anywhere in a python object graph."""
    if _depth > 12:
        return
    if isinstance(obj, str):
        yield obj
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield from iter_strings(k, _depth + 1)
            yield from iter_strings(v, _depth + 1)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for x in obj:
            yield from iter_strings(x, _depth + 1)
    elif hasattr(obj, "__dataclass_fields__"):
        for f in obj.__dataclass_fields__:
            yield from iter_strings(getattr(obj, f), _depth + 1)
    elif hasattr(obj, "__dict__"):
        for v in vars(obj).values():
            yield from iter_strings(v, _depth + 1)


def declared_values(payload):
    out = set()
    for entry in payload.carried_values():
        val = getattr(entry, "value", entry)
        if isinstance(val, str):
            out.add(val)
    return out


def is_sentinel(s: str) -> bool:
    return s.startswith("v") and "@" in s


@pytest.mark.parametrize("protocol", sorted(protocol_names()))
def test_no_undeclared_values_to_clients(protocol):
    system = build_system(protocol, objects=("X0", "X1", "X2", "X3"), n_servers=2)
    spec = WorkloadSpec(n_txns=50, read_ratio=0.6, seed=13)
    with system.sim.recording() as events:
        run_workload(system, spec)
    servers = set(system.service_pids)
    clients = set(system.clients)
    leaks = []
    for ev in events:
        if not isinstance(ev, StepEvent) or ev.pid not in servers:
            continue
        for m in ev.sent:
            if m.dst not in clients:
                continue
            payload = m.payload
            declared = declared_values(payload) if isinstance(payload, Payload) else set()
            for s in iter_strings(payload):
                if is_sentinel(s) and s not in declared:
                    leaks.append((protocol, repr(m), s))
    assert not leaks, leaks[:5]


def test_detector_actually_detects():
    """Sanity: the scanner finds a sentinel smuggled through metadata."""
    from repro.protocols.base import ReadReply, ValueEntry

    dirty = ReadReply(
        txid="t", values=(), meta={"smuggled": "v9@c0"}
    )
    found = [s for s in iter_strings(dirty) if is_sentinel(s)]
    assert found == ["v9@c0"]
    assert "v9@c0" not in declared_values(dirty)
