"""Key-distribution generators for aggregation and caching workloads.

The paper's AsyncAgtr/KeyValue experiments (Figures 12 and 13) stress
the switch-memory cache with skewed key popularity; Zipf-distributed
keys are the standard model for that skew.
"""

from __future__ import annotations

import bisect
import random
from typing import List

__all__ = ["ZipfGenerator"]


class ZipfGenerator:
    """Samples keys 0..n-1 with Zipf(s) popularity.

    Uses inverse-CDF sampling over the precomputed harmonic weights, so
    sampling is O(log n) and exact.
    """

    def __init__(self, n: int, s: float = 1.0, seed: int = 0):
        if n < 1:
            raise ValueError("need at least one key")
        if s < 0:
            raise ValueError("zipf exponent must be >= 0")
        self.n = n
        self.s = s
        self.rng = random.Random(seed)
        weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
        total = 0.0
        self._cdf: List[float] = []
        for w in weights:
            total += w
            self._cdf.append(total)
        self._total = total

    def sample_index(self) -> int:
        u = self.rng.random() * self._total
        return bisect.bisect_left(self._cdf, u)
