"""TrueTime clock tests — including a property-based law with hypothesis."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.clock import TrueTimeOracle, TTInterval


class TestTrueTime:
    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            TrueTimeOracle(-1)

    def test_interval_contains_truth(self):
        tt = TrueTimeOracle(epsilon=4)
        for pid in ("s0", "s1", "client:9"):
            for wall in (0, 5, 100):
                iv = tt.now(pid, wall)
                # the interval is wide enough to contain true time
                assert iv.earliest <= wall + 2 * 4
                assert iv.latest >= max(0, wall - 4)
                assert iv.latest - iv.earliest <= 4 * 2

    def test_after_is_conservative(self):
        tt = TrueTimeOracle(epsilon=3)
        # TT.after(t) at wall w implies true time w > t
        for pid in ("a", "b"):
            for wall in range(0, 40):
                if tt.after(pid, 10, wall):
                    assert wall > 10

    def test_zero_epsilon_is_exact(self):
        tt = TrueTimeOracle(epsilon=0)
        iv = tt.now("x", 7)
        assert iv == TTInterval(7, 7)

    def test_skew_deterministic_per_pid(self):
        tt = TrueTimeOracle(epsilon=5)
        assert tt.now("s0", 50) == tt.now("s0", 50)

    @given(st.integers(0, 200), st.integers(0, 200))
    def test_after_eventually_true(self, t, start):
        tt = TrueTimeOracle(epsilon=4)
        # after enough wall progress, TT.after(t) must hold
        assert tt.after("p", t, t + start + 2 * 4 + 1)
