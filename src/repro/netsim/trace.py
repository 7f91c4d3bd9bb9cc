"""Measurement helpers: counters, rate meters, percentiles."""

from __future__ import annotations

import math
from bisect import insort
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "RateMeter",
    "LatencyRecorder",
    "percentile",
    "mean",
]


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence."""
    return sum(values) / len(values) if values else 0.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile, ``pct`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"pct must be in [0, 100], got {pct}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    lower = math.floor(rank)
    upper = math.ceil(rank)
    if lower == upper:
        return ordered[lower]
    frac = rank - lower
    return ordered[lower] * (1.0 - frac) + ordered[upper] * frac


class Counter(dict):
    """Named numeric counters: a ``dict`` whose missing keys read 0.

    Increments sit on the per-packet hot path (several per hop), so hot
    callers write ``stats[key] += 1`` directly — two C-level dict
    operations, no method call.  Reading a missing key returns 0
    without inserting it, so snapshots only ever show counters that
    were actually bumped.
    """

    __slots__ = ()

    def __missing__(self, key: str) -> float:
        return 0

    def add(self, key: str, amount: float = 1) -> None:
        self[key] += amount

    def get(self, key: str, default: float = 0) -> float:
        return dict.get(self, key, default)

    def as_dict(self) -> Dict[str, float]:
        return dict(self)


class RateMeter:
    """Accumulates byte counts and reports average rates per bucket.

    ``bucket_s`` controls the resolution of :meth:`series` (the
    throughput-over-time curves in Figures 8/9).
    """

    def __init__(self, bucket_s: float = 0.01):
        if bucket_s <= 0:
            raise ValueError("bucket size must be positive")
        self.bucket_s = bucket_s
        self._buckets: Dict[int, float] = {}
        self.total_bytes = 0.0
        self.first_time: Optional[float] = None
        self.last_time: Optional[float] = None

    def record(self, time: float, nbytes: float) -> None:
        index = int(time / self.bucket_s)
        self._buckets[index] = self._buckets.get(index, 0.0) + nbytes
        self.total_bytes += nbytes
        if self.first_time is None:
            self.first_time = time
        self.last_time = time

    def series(self) -> List[Tuple[float, float]]:
        """(bucket start time, average Gbps within the bucket) pairs."""
        result = []
        for index in sorted(self._buckets):
            gbps = self._buckets[index] * 8.0 / self.bucket_s / 1e9
            result.append((index * self.bucket_s, gbps))
        return result

    def average_gbps(self, start: Optional[float] = None,
                     end: Optional[float] = None) -> float:
        """Mean rate between ``start`` and ``end`` (defaults: full span)."""
        if self.first_time is None or self.last_time is None:
            return 0.0
        start = self.first_time if start is None else start
        end = self.last_time if end is None else end
        if end <= start:
            return 0.0
        total = sum(b for i, b in self._buckets.items()
                    if start <= i * self.bucket_s < end)
        return total * 8.0 / (end - start) / 1e9


class LatencyRecorder:
    """Collects latency samples and reports summary statistics."""

    def __init__(self, name: str = ""):
        self.name = name
        self._sorted: List[float] = []

    def record(self, latency_s: float) -> None:
        if latency_s < 0:
            raise ValueError("latency must be >= 0")
        insort(self._sorted, latency_s)

    def __len__(self) -> int:
        return len(self._sorted)

    @property
    def count(self) -> int:
        return len(self._sorted)

    def mean(self) -> float:
        return mean(self._sorted)

    def p(self, pct: float) -> float:
        return percentile(self._sorted, pct)

    def summary(self) -> Dict[str, float]:
        if not self._sorted:
            return {"count": 0}
        return {
            "count": len(self._sorted),
            "mean": self.mean(),
            "p50": self.p(50),
            "p99": self.p(99),
            "max": self._sorted[-1],
        }
