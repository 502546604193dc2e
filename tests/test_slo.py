"""Open-loop SLO harness: arrivals, admission queueing, knee detection."""

import dataclasses

import pytest

from repro.bench.runner import Bench, to_jsonable
from repro.bench.slo import (OpenLoopBench, SloPoint, SloSpec, detect_knee,
                             format_slo_report, run_slo_point,
                             run_slo_points, slo_report)
from repro.workloads import Smallbank

from .golden import canonical_digest
from .pins import pinned


def spec(**kw):
    base = dict(system="xenic", workload="smallbank",
                loads_per_node_s=(100000.0,), n_nodes=3,
                warmup_us=60.0, window_us=200.0, seed=7)
    base.update(kw)
    return SloSpec(**base)


def test_open_loop_point_is_deterministic():
    a = run_slo_point(spec(), 200000.0)
    b = run_slo_point(spec(), 200000.0)
    assert a == b
    assert a.commits > 0
    assert a.p50_us > 0
    assert a.p999_us >= a.p99_us >= a.p50_us


def test_parallel_points_match_serial():
    s = spec(loads_per_node_s=(100000.0, 400000.0))
    serial = run_slo_points(s, jobs=1)
    parallel = run_slo_points(s, jobs=2)
    assert serial == parallel
    assert len(serial) == 2


def test_spec_faults_reach_every_point():
    """``SloSpec.faults`` is the plan each point's Bench runs under, on
    the single point, the open-loop bench and the sweep alike."""
    faulty = spec(faults=("drop=0.2,delay=0.3:20", 3))
    bench = OpenLoopBench(faulty, 200000.0)
    assert bench.bench.fault_plan is not None
    point = bench.measure()
    assert len(bench.bench.fault_plan.trace) > 0
    assert point != run_slo_point(spec(), 200000.0)
    assert run_slo_point(faulty, 200000.0) == point
    assert run_slo_points(dataclasses.replace(
        faulty, loads_per_node_s=(200000.0,)), jobs=1) == [point]


def test_latency_grows_with_offered_load():
    s = spec(loads_per_node_s=(50000.0, 1500000.0), window_us=300.0)
    lo, hi = run_slo_points(s, jobs=1)
    assert hi.achieved_per_node_s > lo.achieved_per_node_s
    assert hi.p99_us >= lo.p99_us


def test_admission_queue_wait_measured():
    # one worker per node under heavy load: arrivals must queue
    s = spec(max_inflight=1, window_us=300.0)
    p = run_slo_point(s, 1000000.0)
    assert p.queue_p99_us > 0.0
    assert p.backlog > 0
    # sojourn includes the queue wait
    assert p.p99_us >= p.queue_p99_us


def test_queue_waits_exposed_for_attribution():
    bench = OpenLoopBench(spec(max_inflight=1), 800000.0)
    point = bench.measure()
    assert point.commits > 0
    assert bench.queue_waits
    assert all(w >= 0.0 for w in bench.queue_waits.values())


def test_bursty_arrivals_and_validation():
    p = run_slo_point(spec(arrival="bursty"), 300000.0)
    assert p.arrival == "bursty"
    assert p.commits > 0
    with pytest.raises(ValueError):
        spec(arrival="bursty", burst_factor=4.0, burst_fraction=0.3)
    with pytest.raises(ValueError):
        spec(arrival="weibull")


def test_detect_knee():
    def pt(load, p99, achieved=None):
        return SloPoint(
            system="xenic", workload="smallbank", arrival="poisson",
            offered_per_node_s=load, arrived_per_node_s=load,
            achieved_per_node_s=achieved if achieved is not None else load,
            p50_us=p99 / 2, p99_us=p99, p999_us=p99 * 2, mean_us=p99 / 2,
            queue_mean_us=0.0, queue_p99_us=0.0, commits=100, aborts=0,
            backlog=0, window_us=500.0)

    points = [pt(100.0, 10.0), pt(200.0, 40.0), pt(400.0, 300.0)]
    knee = detect_knee(points, slo_p99_us=100.0)
    assert knee.offered_per_node_s == 200.0
    # a point that sheds load cannot be the knee even with a flattering p99
    points = [pt(100.0, 10.0), pt(200.0, 20.0, achieved=50.0)]
    knee = detect_knee(points, slo_p99_us=100.0)
    assert knee.offered_per_node_s == 100.0
    assert detect_knee([pt(100.0, 900.0)], slo_p99_us=100.0) is None


def test_slo_report_round_trip():
    s = spec(loads_per_node_s=(100000.0, 400000.0))
    points = run_slo_points(s, jobs=1)
    report = slo_report(s, points, slo_p99_us=150.0)
    assert len(report["points"]) == 2
    assert report["points"][0]["offered_per_node_s"] == 100000.0
    text = format_slo_report(report)
    assert "SLO sweep" in text and "SLO knee" in text
    import json

    json.dumps(report)  # must be JSON-clean


def test_open_loop_abort_accounting():
    # small hot set to force conflicts
    s = spec(workload="smallbank", window_us=300.0)
    bench = OpenLoopBench(dataclasses.replace(s), 1200000.0)
    point = bench.measure()
    assert point.aborts == sum(bench.abort_reasons.values())
    if point.aborts:
        assert "abort_p99_us" in point.extra


def test_closed_loop_bench_abort_recorder():
    wl = Smallbank(3, accounts_per_server=1500, hot_keys_fraction=0.25,
                   seed=7)
    bench = Bench("xenic", wl, n_nodes=3)
    result = bench.measure(8, warmup_us=60.0, window_us=300.0)
    # attached as plain attributes, not dataclass fields (digest safety)
    assert "abort_latency" not in [
        f.name for f in dataclasses.fields(result)]
    assert result.abort_latency["count"] == result.aborts
    assert sum(result.abort_reasons.values()) == result.aborts
    if result.aborts:
        assert result.abort_latency["p99"] > 0.0


def test_slo_cli_smoke(tmp_path, capsys):
    from repro.__main__ import main

    out = tmp_path / "slo.json"
    rc = main(["slo", "--loads", "100000,400000", "--window", "150",
               "--warmup", "40", "--seed", "7", "--json", str(out)])
    assert rc == 0
    assert out.exists()
    text = capsys.readouterr().out
    assert "SLO sweep" in text


def test_attrib_cli_smoke(capsys):
    from repro.__main__ import main

    rc = main(["attrib", "--workload", "smallbank", "--nodes", "3",
               "--concurrency", "3", "--warmup", "40", "--window", "120"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "latency attribution" in text
    assert "max per-txn residual" in text


def slo_digest():
    """Digest of the pinned open-loop output: two Xenic Poisson loads
    (the second drives aborts), one bursty point and one DrTM+H point,
    with each point's abort extras, abort reasons and count of
    attributed queue waits."""
    runs = []
    for s, load in ((spec(), 200000.0), (spec(), 1200000.0),
                    (spec(arrival="bursty"), 300000.0),
                    (spec(system="drtmh"), 400000.0)):
        bench = OpenLoopBench(s, load)
        point = bench.measure()
        runs.append({"point": to_jsonable(point),
                     "abort_reasons": dict(bench.abort_reasons),
                     "queue_waits": len(bench.queue_waits),
                     "sim_now_us": bench.sim.now})
    return canonical_digest(runs)


def test_slo_digest_pinned():
    pinned("slo.digest", slo_digest())
