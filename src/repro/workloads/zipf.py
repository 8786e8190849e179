"""Zipfian key popularity.

Key-value workloads are heavily skewed in practice (the paper cites the
Facebook workload studies); a Zipf(θ) sampler over a fixed key universe
reproduces that shape.  The implementation precomputes the CDF and
samples it by binary search — O(log n) per draw, deterministic under the
seed.

The uniform draws are NumPy's ``default_rng(seed).random()`` stream, bit
for bit, computed with the standard library alone: ``SeedSequence`` hashes
the seed into a 256-bit state and ``PCG64`` (XSL-RR output) draws from it.
Every seeded workload is therefore the one the earlier NumPy-based sampler
generated, and NumPy is needed only to check that identity (the tests do,
when it is installed).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_sequence(seed: int) -> list:
    """``SeedSequence(seed).generate_state(4, uint64)``."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    entropy = [seed & _M32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _M32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out, hash_const = [], 0x8B51F9DD
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        out.append(value ^ value >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class ZipfGenerator:
    """Draw indices in ``[0, n)`` with probability ∝ 1/(i+1)^theta.

    ``theta = 0`` is uniform; ``theta ≈ 0.99`` matches the YCSB default.
    """

    def __init__(self, n: int, theta: float = 0.99, seed: int = 0):
        if n <= 0:
            raise ValueError("n must be positive")
        if theta < 0:
            raise ValueError("theta must be >= 0")
        self.n = n
        self.theta = theta
        cdf = list(accumulate(1.0 / float(i) ** theta for i in range(1, n + 1)))
        self._cdf = [c / cdf[-1] for c in cdf]
        # PCG64 seeded as NumPy seeds it: (state, sequence) from the
        # SeedSequence words, then step / add the state / step
        w = _seed_sequence(seed)
        self._inc = (w[2] << 64 | w[3]) << 1 & _M128 | 1
        self._state = ((self._inc + (w[0] << 64 | w[1])) * _PCG_MULT + self._inc) & _M128

    def random(self) -> float:
        """The next uniform double in ``[0, 1)`` (``Generator.random()``)."""
        state = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        rot = state >> 122
        x = ((state >> 64) ^ state) & _M64
        return (((x >> rot | x << (64 - rot)) & _M64) >> 11) * 2.0**-53

    def sample(self) -> int:
        return bisect_left(self._cdf, self.random())

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

    def pmf(self) -> list:
        """The probability mass function, as a list (for tests)."""
        return [c - p for p, c in zip([0.0] + self._cdf, self._cdf)]
