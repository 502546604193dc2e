"""Latency attribution: interval sweep, priority stack, end-to-end sums."""

import pytest

from repro.bench.runner import Bench
from repro.obs import Observer
from repro.obs.events import InstantEvent
from repro.obs.attrib import (ATTRIB_PHASES, LatencyAttributor,
                              attribute_bench)
from repro.sim.core import Simulator
from repro.workloads import Smallbank


def small_bench(system="xenic", n=3, seed=7):
    wl = Smallbank(n, accounts_per_server=1500, hot_keys_fraction=0.25,
                   seed=seed)
    return Bench(system, wl, n_nodes=n, obs=True)


# ---------------------------------------------------------------------------
# unit: the sweep over hand-built span sets
# ---------------------------------------------------------------------------


def make_observer():
    sim = Simulator()
    return Observer(sim)


def test_sweep_partitions_exactly():
    obs = make_observer()
    # txn [0, 100]
    obs.span("pay", "txn", 0, "txn", 0.0, 100.0, txn_id=1,
             args={"attempts": 1})
    obs.attrib_span("dma", 0, 10.0, 20.0, 1)
    # nic span with known service 5 of a 10us interval -> 5 queue + 5 svc
    obs.attrib_span("nic", 1, 30.0, 40.0, 1, svc=5.0)
    obs.span("execute_core", "server", 1, "nicrt", 50.0, 20.0, txn_id=1)
    obs.attrib_span("wire", 0, 45.0, 90.0, 1)
    res = LatencyAttributor(obs).attribute()
    assert res.count == 1
    t = res.txns[0]
    assert t.phases["dma"] == pytest.approx(10.0)
    assert t.phases["nic_queue"] == pytest.approx(5.0)
    assert t.phases["nic_service"] == pytest.approx(5.0)
    # handler [50,70] outranks the overlapping wire [45,90]
    assert t.phases["handler"] == pytest.approx(20.0)
    assert t.phases["wire"] == pytest.approx(25.0)
    assert t.phases["other"] == pytest.approx(100.0 - 10 - 10 - 20 - 25)
    assert t.total_us == pytest.approx(t.latency_us)
    assert t.residual_us() < 1e-9
    assert t.dominant == "other"


def test_sweep_priority_under_full_overlap():
    obs = make_observer()
    obs.span("pay", "txn", 0, "txn", 0.0, 10.0, txn_id=2)
    # coordinator phase covers everything; dma and backoff carve it up
    obs.span("phase_execute", "phase", 0, "proto", 0.0, 10.0, txn_id=2)
    obs.attrib_span("dma", 0, 2.0, 4.0, 2)
    obs.attrib_span("backoff", 0, 3.0, 6.0, 2)  # outranks dma on [3,4]
    res = LatencyAttributor(obs).attribute()
    t = res.txns[0]
    assert t.phases["backoff"] == pytest.approx(3.0)
    assert t.phases["dma"] == pytest.approx(1.0)
    assert t.phases["coord"] == pytest.approx(6.0)
    assert t.phases["other"] == pytest.approx(0.0)


def test_spans_clipped_to_txn_window():
    obs = make_observer()
    obs.span("pay", "txn", 0, "txn", 10.0, 10.0, txn_id=3)
    obs.attrib_span("dma", 0, 5.0, 15.0, 3)  # overhangs the start
    obs.attrib_span("wire", 0, 18.0, 30.0, 3)  # overhangs the end
    t = LatencyAttributor(obs).attribute().txns[0]
    assert t.phases["dma"] == pytest.approx(5.0)
    assert t.phases["wire"] == pytest.approx(2.0)
    assert t.total_us == pytest.approx(10.0)


def test_client_queue_rides_along():
    obs = make_observer()
    obs.span("pay", "txn", 0, "txn", 0.0, 10.0, txn_id=4)
    res = LatencyAttributor(obs).attribute(client_queue={4: 7.5})
    t = res.txns[0]
    assert t.phases["client_queue"] == pytest.approx(7.5)
    # queueing extends the sum past the service latency ...
    assert t.total_us == pytest.approx(17.5)
    # ... but the residual check still compares service time only
    assert t.residual_us() < 1e-9


def test_abort_instants_counted_by_reason():
    obs = make_observer()
    obs.log.append(InstantEvent("abort", "txn", 0, "txn", 5.0, txn_id=9,
                                args={"reason": "lock-conflict"}))
    obs.log.append(InstantEvent("abort", "txn", 1, "txn", 6.0, txn_id=9,
                                args={"reason": "lock-conflict"}))
    obs.log.append(InstantEvent("abort", "txn", 0, "txn", 7.0, txn_id=11,
                                args={}))
    res = LatencyAttributor(obs).attribute()
    assert res.aborted_attempts == 3
    assert res.abort_reasons == {"lock-conflict": 2, "unknown": 1}


# ---------------------------------------------------------------------------
# integration: a real observed run
# ---------------------------------------------------------------------------


def test_attribution_sums_match_end_to_end():
    bench = small_bench()
    result = bench.measure(4, warmup_us=60.0, window_us=250.0)
    assert result.commits > 0
    res = attribute_bench(bench)
    assert res.count > 0
    assert res.events_dropped == 0
    # the acceptance bar is 1%; the sweep is exact by construction
    assert res.max_residual_frac() < 0.01
    # every txn's phases cover its whole latency
    for t in res.txns[:50]:
        assert t.total_us == pytest.approx(t.latency_us, rel=1e-6)
    # wire/nic/dma all show up on a distributed workload
    assert res.phase_totals["wire"] > 0
    assert res.phase_totals["nic_service"] > 0
    assert res.phase_totals["dma"] > 0
    assert set(res.dominant_counts) <= set(ATTRIB_PHASES)
    d = res.to_dict()
    assert d["txns"] == res.count
    assert set(d["phases"]) == set(ATTRIB_PHASES)
    text = res.format()
    assert "latency attribution" in text
    assert "wire" in text


def test_attribution_on_baseline_system():
    bench = small_bench(system="drtmh")
    bench.measure(3, warmup_us=60.0, window_us=200.0)
    res = attribute_bench(bench)
    assert res.count > 0
    # baselines have no NIC runtime: everything lands in coarser buckets
    assert res.max_residual_frac() < 0.01
    assert res.phase_totals["nic_service"] == 0.0


def test_observer_neutral_with_attribution_installed():
    """An observed run commits the same transactions as an unobserved one
    (attribution instrumentation must not perturb timing) — at low load
    and at c=64, where NIC cores queue and the attribution explains the
    peak the benchmark measures."""
    def run(concurrency, **obs):
        wl = Smallbank(3, accounts_per_server=1500, hot_keys_fraction=0.25,
                       seed=7)
        bench = Bench("xenic", wl, n_nodes=3, **obs)
        return bench, bench.measure(concurrency, warmup_us=60.0,
                                    window_us=200.0)

    for concurrency in (3, 64):
        _plain, r0 = run(concurrency)
        observed, r1 = run(concurrency, obs=True)
        assert (r0.commits, r0.aborts) == (r1.commits, r1.aborts)
        assert r0.median_latency_us == r1.median_latency_us
        assert r0.p99_latency_us == r1.p99_latency_us
        assert attribute_bench(observed).count > 0
