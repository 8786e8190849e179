"""Simulated-physical clocks.

:class:`TrueTimeOracle` is Spanner's bounded-uncertainty clock,
simulated over the executor's event counter (the substitution for the
GPS/atomic-clock infrastructure; documented in DESIGN.md).

The other protocols of Table 1 keep their logical timestamps (Lamport
scalars, dependency vectors, stable-time cutoffs) as plain integers and
dicts in their own state; none needs a clock object.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TTInterval:
    """A TrueTime interval: true time ∈ [earliest, latest]."""

    earliest: int
    latest: int


class TrueTimeOracle:
    """Simulated TrueTime with uncertainty bound ``epsilon``.

    True time is the executor's event counter; each process sees it
    through a deterministic per-process skew in ``[-epsilon, +epsilon]``
    derived from the process id, so different processes genuinely disagree
    (within bounds) about the current time.
    """

    def __init__(self, epsilon: int = 4):
        if epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        self.epsilon = epsilon

    def _skew(self, pid: str) -> int:
        if self.epsilon == 0:
            return 0
        h = 0
        for ch in pid:
            h = (h * 131 + ord(ch)) % (2 * self.epsilon + 1)
        return h - self.epsilon

    def now(self, pid: str, wall: int) -> TTInterval:
        local = max(0, wall + self._skew(pid))
        return TTInterval(max(0, local - self.epsilon), local + self.epsilon)

    def after(self, pid: str, t: int, wall: int) -> bool:
        """TT.after(t): guaranteed that true time has passed ``t``."""
        return self.now(pid, wall).earliest > t
