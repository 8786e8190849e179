"""Pairs of engine configurations that must agree exactly.

Each test draws a scenario and runs it twice, once per setting of one
engine knob, and requires the two results to be equal where
``docs/model.md`` promises they are.  The first arm is the snapshot
mode: the ``bytes`` path, which backtracks through an undo journal and
serves digests from its state table, against the ``deepcopy`` oracle,
which snapshots at every mark and caches nothing.
"""

import importlib.util
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.explore import explore_write_read_race
from repro.protocols.registry import get_protocol, protocol_names
from repro.sim.executor import use_snapshot_mode

_SMOKE = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_smoke.py"
_spec = importlib.util.spec_from_file_location("bench_smoke", _SMOKE)
bench_smoke = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_smoke)

POR_SAFE = [p for p in protocol_names() if get_protocol(p).por_safe]

scenarios = st.fixed_dictionaries(
    dict(
        protocol=st.sampled_from(POR_SAFE),
        max_depth=st.integers(6, 14),
        max_states=st.integers(1, 1_500),
        por=st.booleans(),
    )
)


@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenario=scenarios)
def test_snapshot_modes_agree(scenario):
    """Every exact count, trail and anomaly is the same in both modes."""
    keys = {}
    for mode in ("bytes", "deepcopy"):
        with use_snapshot_mode(mode):
            r = explore_write_read_race(first_violation_only=False, **scenario)
        keys[mode] = bench_smoke.exact_key(r)
    assert keys["bytes"] == keys["deepcopy"], scenario
