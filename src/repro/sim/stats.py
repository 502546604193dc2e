"""Measurement helpers: online statistics, percentile recorders, counters."""

from __future__ import annotations

import math
from typing import Dict, List

__all__ = [
    "OnlineStats",
    "LogHistogram",
    "LatencyRecorder",
    "Counter",
]


class OnlineStats:
    """Welford online mean (and sum of squared deviations, ``_m2``) plus
    min/max."""

    __slots__ = ("count", "_mean", "_m2", "min", "max")

    def __init__(self):
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, x: float) -> None:
        self.count += 1
        delta = x - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (x - self._mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0


class LogHistogram:
    """Fixed-bucket log-scale histogram over positive values.

    Bucket boundaries grow geometrically by ``growth``, so the relative
    error of any reported quantile is bounded by ``growth - 1``.  Each
    bucket keeps a count *and* a value sum; the quantile representative is
    the bucket mean, which is exact whenever a bucket holds identical
    values (with growth=1.01 every integer up to 100 lands in its own
    bucket).  Values at or below ``min_value`` share the underflow
    bucket, values above ``max_value`` the overflow bucket.
    """

    __slots__ = ("min_value", "max_value", "growth", "_inv_log_growth",
                 "_n_buckets", "_counts", "_sums", "count", "min", "max")

    def __init__(self, min_value: float = 1e-3, max_value: float = 1e7,
                 growth: float = 1.01):
        if min_value <= 0 or max_value <= min_value:
            raise ValueError("need 0 < min_value < max_value")
        if growth <= 1.0:
            raise ValueError("growth must exceed 1.0")
        self.min_value = min_value
        self.max_value = max_value
        self.growth = growth
        self._inv_log_growth = 1.0 / math.log(growth)
        span = math.log(max_value / min_value) * self._inv_log_growth
        # +1 for the underflow bucket, +1 for overflow.
        self._n_buckets = int(math.ceil(span)) + 2
        self._counts: List[int] = [0] * self._n_buckets
        self._sums: List[float] = [0.0] * self._n_buckets
        self.count = 0
        self.min = math.inf
        self.max = -math.inf

    def _bucket_index(self, x: float) -> int:
        if x <= self.min_value:
            return 0
        idx = int(math.log(x / self.min_value) * self._inv_log_growth) + 1
        return min(idx, self._n_buckets - 1)

    def add(self, x: float) -> None:
        i = self._bucket_index(x)
        self._counts[i] += 1
        self._sums[i] += x
        self.count += 1
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, p in [0, 100]."""
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if self.count == 0:
            return 0.0
        rank = max(0, min(self.count - 1,
                          math.ceil(p / 100.0 * self.count) - 1))
        seen = 0
        for c, s in zip(self._counts, self._sums):
            if not c:
                continue
            seen += c
            if rank < seen:
                return s / c
        return self.max  # not reachable: ranks are < self.count

    @property
    def mean(self) -> float:
        return sum(self._sums) / self.count if self.count else 0.0

    def clear(self) -> None:
        self._counts = [0] * self._n_buckets
        self._sums = [0.0] * self._n_buckets
        self.count = 0
        self.min = math.inf
        self.max = -math.inf


class LatencyRecorder:
    """Collects latency samples and reports percentiles.

    Backed by a fixed-bucket log-scale :class:`LogHistogram`, so
    recording is O(1) and percentile queries cost O(buckets) regardless
    of how many samples were recorded; percentiles are exact up to the
    1% bucket resolution.  The mean stays exact via :class:`OnlineStats`.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.hist = LogHistogram()
        self.stats = OnlineStats()

    def record(self, latency_us: float) -> None:
        self.hist.add(latency_us)
        self.stats.add(latency_us)

    def __len__(self) -> int:
        return self.hist.count

    @property
    def count(self) -> int:
        return self.hist.count

    @property
    def mean(self) -> float:
        return self.stats.mean

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, p in [0, 100]."""
        if self.hist.count == 0:
            return 0.0
        return self.hist.percentile(p)

    @property
    def median(self) -> float:
        return self.percentile(50.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    @property
    def p999(self) -> float:
        return self.percentile(99.9)

    def summary(self) -> Dict[str, float]:
        """Compact p50/p99/p999 summary dict (JSON-ready)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.median,
            "p99": self.p99,
            "p999": self.p999,
        }

    def clear(self) -> None:
        self.hist.clear()
        self.stats = OnlineStats()


class Counter:
    """A named bag of integer counters."""

    def __init__(self):
        self._counts: Dict[str, int] = {}

    def inc(self, key: str, n: int = 1) -> None:
        self._counts[key] = self._counts.get(key, 0) + n

    def get(self, key: str) -> int:
        return self._counts.get(key, 0)

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)

    def clear(self) -> None:
        self._counts.clear()
