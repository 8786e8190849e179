"""Zipfian key popularity.

Key-value workloads are heavily skewed in practice (the paper cites the
Facebook workload studies); a Zipf(θ) sampler over a fixed key universe
reproduces that shape.  The implementation precomputes the CDF with
numpy and samples by binary search — O(log n) per draw, deterministic
under a seeded generator.
"""

from __future__ import annotations


class ZipfGenerator:
    """Draw indices in ``[0, n)`` with probability ∝ 1/(i+1)^theta.

    ``theta = 0`` is uniform; ``theta ≈ 0.99`` matches the YCSB default.
    """

    def __init__(self, n: int, theta: float = 0.99, seed: int = 0):
        if n <= 0:
            raise ValueError("n must be positive")
        if theta < 0:
            raise ValueError("theta must be >= 0")
        # numpy is a third of the package's import time and ~12 MB of
        # RSS: only a process that generates a workload pays for it
        import numpy as np

        self.n = n
        self.theta = theta
        weights = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), theta)
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        self.rng = np.random.default_rng(seed)

    def sample(self) -> int:
        u = self.rng.random()
        return int(self._cdf.searchsorted(u, side="left"))

    def sample_distinct(self, k: int) -> list:
        """Draw ``k`` distinct indices (k ≤ n)."""
        if k > self.n:
            raise ValueError(f"cannot draw {k} distinct from {self.n}")
        out: list = []
        seen = set()
        # rejection sampling is fine for the small k used in transactions
        while len(out) < k:
            i = self.sample()
            if i not in seen:
                seen.add(i)
                out.append(i)
        return out

    def pmf(self):
        """The probability mass function, as an ndarray (for tests)."""
        pmf = self._cdf.copy()
        pmf[1:] -= self._cdf[:-1]
        return pmf
