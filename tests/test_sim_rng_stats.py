"""Tests for RNG streams, distribution samplers, and statistics helpers."""

import hashlib
import math
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    HotspotGenerator,
    LatencyRecorder,
    LogHistogram,
    OnlineStats,
    RngStream,
    Simulator,
    ZipfGenerator,
)
from repro.sim.link import BatchingLink, SerialLink

from .stats_reference import merge, percentile_of_sorted, welford_variance


# ---------------------------------------------------------------------------
# RngStream
# ---------------------------------------------------------------------------


def test_rng_deterministic_for_same_seed():
    a = RngStream(42, "x")
    b = RngStream(42, "x")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_rng_differs_across_names():
    a = RngStream(42, "x")
    b = RngStream(42, "y")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_rng_split_independent():
    root = RngStream(1)
    c1 = root.split("child")
    seq1 = [c1.randint(0, 100) for _ in range(5)]
    # draw from another child; re-derive the first and compare
    root.split("other").random()
    c1b = RngStream(1).split("child")
    assert [c1b.randint(0, 100) for _ in range(5)] == seq1


@pytest.mark.parametrize("seed, name", [
    (0, "root"), (1, "child"), (42, "x"), (7, "root/workload/zipf"),
    (2 ** 64 - 1, "faults/drop"), (-3, "n\u00e9gatif"),
])
def test_stream_seed_is_the_hashlib_sha256_derivation(seed, name):
    """The built-in SHA-256 the streams take (no OpenSSL) derives the
    same seed hashlib does, so every run draws what it drew before."""
    digest = hashlib.sha256(("%d/%s" % (seed, name)).encode()).digest()
    assert RngStream._derive(seed, name) == int.from_bytes(digest[:8],
                                                           "little")


# ---------------------------------------------------------------------------
# Zipf and hotspot samplers
# ---------------------------------------------------------------------------


def test_zipf_zero_alpha_is_uniform():
    z = ZipfGenerator(100, 0.0, RngStream(3, "z"))
    draws = [z.next() for _ in range(5000)]
    assert min(draws) >= 0 and max(draws) < 100
    # roughly uniform: first decile gets ~10%
    frac = sum(1 for d in draws if d < 10) / len(draws)
    assert 0.05 < frac < 0.15


def test_zipf_skew_favors_low_ranks():
    z = ZipfGenerator(10000, 0.99, RngStream(3, "z"))
    draws = [z.next() for _ in range(20000)]
    top_frac = sum(1 for d in draws if d < 100) / len(draws)
    assert top_frac > 0.3  # heavy head


def test_zipf_alpha_half_moderate_skew():
    """Retwis uses alpha=0.5: mild skew."""
    z = ZipfGenerator(10000, 0.5, RngStream(3, "z"))
    draws = [z.next() for _ in range(20000)]
    top_frac = sum(1 for d in draws if d < 1000) / len(draws)
    assert 0.15 < top_frac < 0.6


def test_zipf_bounds_and_validation():
    with pytest.raises(ValueError):
        ZipfGenerator(0, 0.5, RngStream(1))
    with pytest.raises(ValueError):
        ZipfGenerator(10, -1.0, RngStream(1))
    z = ZipfGenerator(1, 0.9, RngStream(1))
    assert z.next() == 0


def test_hotspot_fractions():
    h = HotspotGenerator(10000, hot_fraction_keys=0.04,
                         hot_fraction_ops=0.90, rng=RngStream(5, "h"))
    draws = [h.next() for _ in range(20000)]
    hot = sum(1 for d in draws if d < 400)
    assert 0.85 < hot / len(draws) < 0.95
    assert max(draws) < 10000


def test_hotspot_validation():
    with pytest.raises(ValueError):
        HotspotGenerator(10, 0.0, 0.9, RngStream(1))
    with pytest.raises(ValueError):
        HotspotGenerator(10, 0.5, 1.5, RngStream(1))


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


def test_online_stats_mean_var():
    s = OnlineStats()
    xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
    for x in xs:
        s.add(x)
    assert s.mean == pytest.approx(5.0)
    assert welford_variance(s) == pytest.approx(32.0 / 7.0)
    assert s.min == 2.0 and s.max == 9.0


def test_online_stats_merge():
    a, b, ref = OnlineStats(), OnlineStats(), OnlineStats()
    for i in range(10):
        a.add(float(i))
        ref.add(float(i))
    for i in range(10, 30):
        b.add(float(i))
        ref.add(float(i))
    merge(a, b)
    assert a.count == ref.count
    assert a.mean == pytest.approx(ref.mean)
    assert welford_variance(a) == pytest.approx(welford_variance(ref))


def test_online_stats_merge_both_empty():
    a, b = OnlineStats(), OnlineStats()
    merge(a, b)
    assert a.count == 0
    assert a.mean == 0.0 and welford_variance(a) == 0.0


def test_online_stats_merge_into_empty():
    a, b = OnlineStats(), OnlineStats()
    for x in (1.0, 2.0, 3.0):
        b.add(x)
    merge(a, b)
    assert a.count == 3
    assert a.mean == pytest.approx(2.0)
    assert a.min == 1.0 and a.max == 3.0
    # the source is not mutated
    assert b.count == 3


def test_online_stats_merge_empty_other_is_noop():
    a, b = OnlineStats(), OnlineStats()
    for x in (4.0, 6.0):
        a.add(x)
    merge(a, b)
    assert a.count == 2
    assert a.mean == pytest.approx(5.0)
    assert a.min == 4.0 and a.max == 6.0


@settings(max_examples=30, deadline=None)
@given(xs=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                             allow_nan=False), min_size=2, max_size=200))
def test_online_stats_property_matches_statistics(xs):
    s = OnlineStats()
    for x in xs:
        s.add(x)
    assert s.mean == pytest.approx(statistics.fmean(xs), rel=1e-6, abs=1e-6)
    assert welford_variance(s) == pytest.approx(statistics.variance(xs),
                                                rel=1e-5, abs=1e-3)


def test_log_histogram_exact_for_distinct_integers():
    h = LogHistogram()
    for i in range(1, 101):
        h.add(float(i))
    # growth=1.01 separates every integer <= 100 into its own bucket
    assert h.percentile(50) == 50.0
    assert h.percentile(99) == 99.0
    assert h.percentile(0) == 1.0
    assert h.percentile(100) == 100.0
    assert h.mean == pytest.approx(50.5)
    assert h.min == 1.0 and h.max == 100.0


def test_log_histogram_relative_error_bounded():
    h = LogHistogram()
    rng = RngStream(9, "hist")
    xs = sorted(rng.uniform(0.01, 1e6) for _ in range(2000))
    for x in xs:
        h.add(x)
    for p in (10, 50, 90, 99):
        exact = xs[max(0, math.ceil(p / 100 * len(xs)) - 1)]
        assert h.percentile(p) == pytest.approx(exact, rel=0.02)


def test_log_histogram_under_and_overflow():
    h = LogHistogram(min_value=1.0, max_value=100.0)
    h.add(0.5)     # underflow bucket
    h.add(1e9)     # overflow bucket
    assert h.count == 2
    assert h.percentile(0) == 0.5
    assert h.percentile(100) == 1e9
    assert h.min == 0.5 and h.max == 1e9


def test_log_histogram_validation_and_clear():
    with pytest.raises(ValueError):
        LogHistogram(min_value=0.0)
    with pytest.raises(ValueError):
        LogHistogram(growth=1.0)
    h = LogHistogram()
    with pytest.raises(ValueError):
        h.percentile(-1)
    assert h.count == 0
    assert h.percentile(50) == 0.0
    assert h.mean == 0.0


def test_latency_recorder_percentiles():
    r = LatencyRecorder()
    for i in range(1, 101):
        r.record(float(i))
    assert r.median == 50.0
    assert r.p99 == 99.0
    assert r.percentile(100) == 100.0
    assert r.count == 100


def test_latency_recorder_empty():
    r = LatencyRecorder()
    assert r.median == 0.0 and r.mean == 0.0


def test_latency_recorder_percentile_validation():
    r = LatencyRecorder()
    r.record(1.0)
    with pytest.raises(ValueError):
        r.percentile(101)


# ---------------------------------------------------------------------------
# links
# ---------------------------------------------------------------------------


def test_serial_link_serialization_time():
    sim = Simulator()
    link = SerialLink(sim, bandwidth_gbps=100.0)
    # 1250 bytes at 100 Gbps = 0.1 us
    assert link.serialization_us(1250) == pytest.approx(0.1)


def test_serial_link_fifo_queueing():
    sim = Simulator()
    link = SerialLink(sim, bandwidth_gbps=100.0, overhead_us=1.0)
    times = []
    link.transfer(0, lambda _arg: times.append(sim.now))
    link.transfer(0, lambda _arg: times.append(sim.now))
    sim.run()
    assert times == [1.0, 2.0]


def test_batching_link_backlog_grows_batches():
    sim = Simulator()
    delivered = []
    link = BatchingLink(
        sim, bandwidth_gbps=100.0, overhead_us=0.1, propagation_us=0.0,
        deliver=lambda dst, ps: delivered.extend(ps), aggregation=True,
    )

    def producer(sim):
        for i in range(400):
            link.send(0, 64, i)
            yield sim.timeout(0.02)  # 50M msg/s >> link packet rate

    sim.spawn(producer(sim))
    sim.run()
    assert delivered == list(range(400))
    assert link.payloads_sent > 2 * link.packets_sent


def test_batching_link_low_load_no_window_penalty():
    sim = Simulator()
    arrival = []
    link = BatchingLink(
        sim, bandwidth_gbps=100.0, overhead_us=0.1, propagation_us=0.5,
        deliver=lambda dst, ps: arrival.append(sim.now), aggregation=True,
    )
    link.send(0, 100, "x")
    sim.run()
    # single sporadic message: overhead + serialization + propagation only
    assert arrival[0] < 0.7


def test_percentile_of_sorted_helper():
    xs = [float(i) for i in range(1, 11)]
    assert percentile_of_sorted(xs, 50) == 5.0
    assert percentile_of_sorted(xs, 100) == 10.0
    assert percentile_of_sorted([], 50) == 0.0


def test_counter_ops():
    from repro.sim.stats import Counter

    c = Counter()
    c.inc("a")
    c.inc("a", 4)
    assert c.get("a") == 5
    assert c.get("missing") == 0
    assert c.as_dict() == {"a": 5}
