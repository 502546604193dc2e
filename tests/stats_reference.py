"""Reference statistics the tests check the simulator's recorders
against; no model reads them, so they live here, not in ``repro``."""

import math
from typing import List

from repro.sim.stats import OnlineStats


def percentile_of_sorted(sorted_values: List[float], p: float) -> float:
    """Nearest-rank percentile over an already sorted list."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      math.ceil(p / 100.0 * len(sorted_values)) - 1))
    return sorted_values[rank]


def welford_variance(s: OnlineStats) -> float:
    """Sample variance of an :class:`OnlineStats` from its Welford sum of
    squared deviations (0 below two samples)."""
    return s._m2 / (s.count - 1) if s.count > 1 else 0.0


def merge(into: OnlineStats, other: OnlineStats) -> None:
    """Fold ``other``'s samples into ``into`` (Chan et al.'s parallel
    Welford update); ``other`` is left as it is."""
    if other.count == 0:
        return
    if into.count == 0:
        into.count = other.count
        into._mean = other._mean
        into._m2 = other._m2
        into.min = other.min
        into.max = other.max
        return
    total = into.count + other.count
    delta = other._mean - into._mean
    into._m2 += other._m2 + delta * delta * into.count * other.count / total
    into._mean = (into._mean * into.count + other._mean * other.count) / total
    into.count = total
    into.min = min(into.min, other.min)
    into.max = max(into.max, other.max)
