"""Pairs of engine configurations that must agree exactly.

Each test draws a scenario and runs it twice, once per setting of one
engine knob, and requires the two results to be equal where
``docs/model.md`` promises they are.  The arms:

* the snapshot mode: the ``bytes`` path, which backtracks through an
  undo journal and serves digests from its state table, against the
  ``deepcopy`` oracle, which snapshots at every mark and caches
  nothing;
* ``workers``: serial POR against pools of 2 and 4 workers sharing one
  claim table.  Pool and serial agree on the verdict and the anomaly
  union; the two pool widths agree on every count when both runs are
  conclusive.  Not on the trails: which schedule reaches a violating
  class first is a race between workers, even between two runs of one
  width, and so is every count of a truncated pool run.
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


def verdict(r):
    """The verdict and the union of anomalies over violating schedules."""
    return r.violation_found, sorted(
        {str(a) for _, anomalies in r.violations for a in anomalies}
    )


@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(protocol=st.sampled_from(POR_SAFE))
def test_pool_widths_agree(protocol):
    """Serial POR, ``workers=2`` and ``workers=4`` give one verdict and
    one anomaly union; the two widths give equal counts whenever both
    are conclusive; a first-violation request is answered serially."""
    kw = dict(max_depth=40, max_states=20_000, first_violation_only=False)
    serial = explore_write_read_race(protocol, por=True, **kw)
    w2 = explore_write_read_race(protocol, workers=2, **kw)
    w4 = explore_write_read_race(protocol, workers=4, **kw)
    assert not w2.auto_serial and not w4.auto_serial, protocol
    assert verdict(serial) == verdict(w2) == verdict(w4), protocol
    if w2.conclusive and w4.conclusive:
        counts = [bench_smoke.exact_key(r)[:-1] for r in (w2, w4)]
        assert counts[0] == counts[1], protocol
    first = explore_write_read_race(
        protocol, workers=2, por=True, max_depth=40, max_states=20_000,
        first_violation_only=True,
    )
    assert first.auto_serial, protocol
