"""LogHistogram percentile accuracy against an exact reference."""

import random

import pytest

from repro.sim.stats import LatencyRecorder, LogHistogram

from .stats_reference import percentile_of_sorted

QUANTILES = (50.0, 90.0, 99.0, 99.9)
# Geometric buckets with growth 1.01 bound the quantile's relative error
# by ~1%; 2% leaves headroom for the bucket-mean representative.
REL_ERR = 0.02


def check_against_reference(values):
    hist = LogHistogram()
    for v in values:
        hist.add(v)
    ref = sorted(values)
    for q in QUANTILES:
        exact = percentile_of_sorted(ref, q)
        approx = hist.percentile(q)
        assert approx == pytest.approx(exact, rel=REL_ERR), (
            "p%g: %.4f vs exact %.4f" % (q, approx, exact))


def test_percentiles_uniform():
    rng = random.Random(1)
    check_against_reference([rng.uniform(1.0, 1000.0) for _ in range(20000)])


def test_percentiles_exponential():
    rng = random.Random(2)
    check_against_reference([rng.expovariate(1 / 50.0) + 1e-3
                             for _ in range(20000)])


def test_percentiles_bimodal():
    # fast path vs slow path: the shape attribution/SLO latencies take
    rng = random.Random(3)
    values = []
    for _ in range(20000):
        if rng.random() < 0.9:
            values.append(rng.gauss(8.0, 1.0) or 1e-3)
        else:
            values.append(rng.gauss(200.0, 20.0))
    check_against_reference([max(v, 1e-3) for v in values])


def test_percentile_identical_values_exact():
    hist = LogHistogram()
    for _ in range(100):
        hist.add(42.0)
    for q in QUANTILES:
        assert hist.percentile(q) == pytest.approx(42.0)


def test_overflow_underflow_buckets():
    hist = LogHistogram(min_value=1.0, max_value=100.0)
    hist.add(0.5)  # underflow
    hist.add(1e6)  # overflow
    assert hist.count == 2
    assert hist.percentile(0.0) == pytest.approx(0.5)
    assert hist.percentile(100.0) == pytest.approx(1e6)


def test_recorder_p999_and_summary():
    rec = LatencyRecorder()
    for i in range(1, 10001):
        rec.record(float(i))
    assert rec.p999 == pytest.approx(9990.0, rel=REL_ERR)
    s = rec.summary()
    assert set(s) == {"count", "mean", "p50", "p99", "p999"}
    assert s["count"] == 10000
    assert s["p50"] <= s["p99"] <= s["p999"]
    assert s["mean"] == pytest.approx(5000.5)
