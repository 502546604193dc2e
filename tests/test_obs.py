"""Tests for the observability layer: registry, sampler, the Observer,
and the Chrome trace / metrics exporters."""

import json
from collections import Counter

import pytest

from repro.baselines import SYSTEMS, BaselineCluster
from repro.bench import Bench
from repro.bench.chaos import run_chaos
from repro.core import TxnSpec, XenicCluster, XenicConfig
from repro.obs import (
    EventLog,
    InstantEvent,
    MetricsRegistry,
    Observer,
    Sampler,
    SpanEvent,
    chrome_trace_events,
    dumps_chrome_trace,
    metrics_to_dict,
)
from repro.sim import Simulator
from repro.workloads import Smallbank

from .golden import canonical_digest, golden_point
from .pins import pinned, pinned_floor


# ---------------------------------------------------------------------------
# registry + sampler
# ---------------------------------------------------------------------------


def test_registry_counter_get_or_create():
    reg = MetricsRegistry()
    c1 = reg.counter("n0", "ops")
    c1.value = 5.0
    assert reg.counter("n0", "ops") is c1
    assert c1.value == 5.0
    # distinct labels => distinct metric
    c2 = reg.counter("n0", "ops", shard=1)
    assert c2 is not c1
    assert len(reg.counters) == 2


def test_registry_gauge_duplicate_raises():
    reg = MetricsRegistry()
    reg.gauge("n0", "depth", lambda: 1)
    with pytest.raises(ValueError):
        reg.gauge("n0", "depth", lambda: 2)
    # a different label set is a different gauge
    reg.gauge("n0", "depth", lambda: 3, queue=1)


def test_registry_histogram_and_as_dict():
    reg = MetricsRegistry()
    reg.counter("n0", "ops", shard=2).value = 7.0
    reg.gauge("cluster", "util", lambda: 0.5)
    h = reg.histogram("n0", "probe_len")
    for x in (1.0, 2.0, 3.0, 4.0):
        h.observe(x)
    d = reg.as_dict()
    assert d["counters"]["n0/ops{shard=2}"] == 7.0
    assert d["gauges"]["cluster/util"]["samples"] == 0
    assert d["histograms"]["n0/probe_len"]["count"] == 4
    assert d["histograms"]["n0/probe_len"]["mean"] == pytest.approx(2.5)


def busy_until(sim, t_end, step=10.0):
    def proc():
        while sim.now + step <= t_end:
            yield sim.timeout(step)
    sim.spawn(proc())


def test_sampler_ticks_at_interval():
    sim = Simulator()
    reg = MetricsRegistry()
    reg.gauge("n0", "x", lambda: sim.now)
    busy_until(sim, 100.0)
    sampler = Sampler(sim, reg, interval_us=10.0)
    sampler.start()
    sim.run(until=95.0)
    gauge = next(iter(reg.gauges.values()))
    assert sampler.ticks == 9
    assert [t for t, _ in gauge.series] == [10.0 * i for i in range(1, 10)]


def test_sampler_bounded_by_max_ticks():
    sim = Simulator()
    reg = MetricsRegistry()
    reg.gauge("n0", "x", lambda: 0)
    busy_until(sim, 1000.0, step=1.0)
    sampler = Sampler(sim, reg, interval_us=1.0, max_ticks=5)
    sampler.start()
    sim.run()  # open-ended run must still terminate
    assert sampler.ticks == 5


def test_sampler_stops_at_quiescence():
    sim = Simulator()
    reg = MetricsRegistry()
    reg.gauge("n0", "x", lambda: 0)
    busy_until(sim, 50.0)  # workload ends at t=50
    sampler = Sampler(sim, reg, interval_us=20.0)
    sampler.start()
    sim.run(until=10_000.0)
    # ticks at 20 and 40 while busy, one final tick at 60, then no idle
    # tail even though the run extends to t=10000
    assert sampler.ticks == 3
    assert sim.now == 10_000.0


# ---------------------------------------------------------------------------
# event log
# ---------------------------------------------------------------------------


def test_event_log_bounded_counts_drops():
    log = EventLog(limit=3)
    for i in range(5):
        log.append(SpanEvent("s%d" % i, "c", 0, "t", float(i), 1.0))
    assert len(log) == 3
    assert log.dropped == 2
    assert [e.name for e in log] == ["s0", "s1", "s2"]


def test_event_log_partitions_spans_and_instants():
    log = EventLog()
    log.append(SpanEvent("a", "c", 0, "t", 0.0, 1.0))
    log.append(InstantEvent("b", "c", 0, "t", 2.0))
    assert [e.name for e in log.spans()] == ["a"]
    assert [e.name for e in log.instants()] == ["b"]


# ---------------------------------------------------------------------------
# Observer on real clusters
# ---------------------------------------------------------------------------


def make_xenic(n_keys=96):
    sim = Simulator()
    cluster = XenicCluster(sim, 3, config=XenicConfig(), keys_per_shard=128)
    for k in range(n_keys):
        cluster.load_key(k, value=k)
    cluster.start()
    return sim, cluster


def run_txns(sim, cluster, keys):
    for k in keys:
        spec = TxnSpec(read_keys=[k], write_keys=[k],
                       logic=lambda r, s, k=k: {k: "x"})
        sim.spawn(cluster.protocols[0].run_transaction(spec))
    sim.run(until=5000.0)


def test_observer_collects_spans_and_gauges_on_xenic():
    sim, cluster = make_xenic()
    obs = Observer(sim, sample_interval_us=20.0).install(cluster)
    run_txns(sim, cluster, [1, 2, 4, 8])
    assert sim.processes_spawned == 4  # the clients: the sampler is none
    cats = {e.cat for e in obs.log.spans()}
    assert "txn" in cats      # commits recorded as txn spans
    assert "core" in cats     # NIC/host core lanes
    assert "phase" in cats    # coordinator phases
    assert obs.sampler.ticks > 0
    assert any(g.series for g in obs.registry.gauges.values())
    obs.snapshot_counters()
    d = obs.registry.as_dict()
    assert d["counters"]["n0/proto_commits"] >= 4


def test_observer_spans_every_entry_the_protocol_dispatches():
    """Every entry the inbound dispatch takes logs its span: a server
    span per shipped execution, a phase span per PCIe entry."""
    sim, cluster = make_xenic()
    obs = Observer(sim).install(cluster)
    # from node 0: keys 0 and 3 are local writes, the rest ship execution
    run_txns(sim, cluster, [0, 1, 2, 3, 4, 8])
    count = Counter((e.cat, e.name) for e in obs.log.spans())
    shipped = sum(p.stats.get("shipped_executions")
                  for p in cluster.protocols)
    assert count["server", "handle_exec_ship"] == shipped == 4
    assert count["phase", "nic_coordinate"] == 4
    assert count["phase", "nic_local_commit"] == 2


def phase_spans_of_one_txn(keys):
    sim, cluster = make_xenic()
    obs = Observer(sim).install(cluster)
    spec = TxnSpec(read_keys=keys, write_keys=keys,
                   logic=lambda r, s: {k: "t" for k in keys})
    proc = sim.spawn(cluster.protocols[0].run_transaction(spec))
    txn = sim.run_until_event(proc, limit=1e7)
    sim.run()
    spans = [e for e in obs.log.spans() if e.cat == "phase"]
    assert {e.txn_id for e in spans} == {txn.txn_id}
    assert all(e.dur >= 0 for e in spans)
    return {e.name for e in spans}


def test_observer_phase_spans_on_standard_path():
    # two remote shards -> standard (non-multihop) path
    names = phase_spans_of_one_txn([1, 2])
    assert {"phase_execute", "phase_log"} <= names
    assert "multihop" not in names


def test_observer_phase_spans_on_multihop_path():
    assert "multihop" in phase_spans_of_one_txn([1])


def test_observer_double_install_raises():
    sim, cluster = make_xenic()
    obs = Observer(sim).install(cluster)
    with pytest.raises(RuntimeError):
        obs.install(cluster)


def test_observer_on_baseline_cluster():
    sim = Simulator()
    cluster = BaselineCluster(sim, 3, SYSTEMS["fasst"], host_threads=4,
                              keys_per_shard=128, value_size=16)
    for k in range(96):
        cluster.load_key(k, value=k)
    cluster.start()
    obs = Observer(sim).install(cluster)
    run_txns(sim, cluster, [1, 2, 4])
    assert any(e.cat == "txn" for e in obs.log.spans())
    obs.snapshot_counters()
    d = obs.registry.as_dict()
    assert any(name.endswith("rdma_ops{verb=read}")
               or "rdma_ops" in name for name in d["counters"])


def test_observer_neutral_for_bench_results():
    """Acceptance: installing an Observer changes no simulated result."""
    def run(obs):
        wl = Smallbank(3, accounts_per_server=1500, hot_keys_fraction=0.25)
        bench = Bench("xenic", wl, n_nodes=3, obs=obs)
        r = bench.measure(4, warmup_us=50, window_us=150)
        return (r.throughput_per_server, r.median_latency_us,
                r.p99_latency_us, r.mean_latency_us, r.commits, r.aborts)

    assert run(False) == run(True)


def test_fused_forms_emit_the_stepwise_spans_on_the_golden_cluster():
    """Every (cat, name) an observed run of the golden cluster (c=16)
    logs is the count taken while each observed dispatch still took the
    stepwise form (``golden.c16.span_counts``): the fused form's own
    emission must log the same.  Spans of work on a core are floors: no
    fewer, and up to 0.1 % more — a hold or a lazy charge logs its jobs
    when it is taken, so the ones still in flight when the run stops are
    in the log too."""
    bench, _payload = golden_point(16, obs=True)
    log = bench.observer.log
    assert log.dropped == 0
    count = Counter("%s.%s" % (e.cat, e.name) for e in log)
    pinned_floor("golden.c16.core_jobs_floor", count.pop("core.job"), 0.001)
    pinned_floor("golden.c16.nic_attrib_floor", count.pop("attrib.nic"),
                 0.001)
    pinned("golden.c16.span_counts", count)
    lanes = {}
    for e in log.spans():
        if e.cat == "core":
            lanes.setdefault((e.node, e.track), []).append(
                (e.ts, e.ts + e.dur))
    assert all(".c" in lane for _node, lane in lanes)
    for node in bench.cluster.nodes:
        for group, track in ((node.nic.cores, "nic"),
                             (node.host_app_cores, "host"),
                             (node.worker_cores, "worker")):
            used = [lane for n, lane in lanes
                    if n == node.node_id and lane.startswith(track + ".c")]
            assert 0 < len(used) <= group.cores
    for jobs in lanes.values():
        jobs.sort()
        assert all(end <= start
                   for (_s, end), (start, _e) in zip(jobs, jobs[1:]))


def test_golden_cluster_spans_pinned():
    """Every span the observed golden cluster (c=16) logs, as sorted
    rows of (ts, node, cat, name, track, dur, txn_id, sorted args): the
    pin ``golden.c16.spans`` is how many, and the canonical digest of the
    rows.  A site may change the form it runs in, never what it logs or
    at which instants."""
    bench, _payload = golden_point(16, obs=True)
    log = bench.observer.log
    assert log.dropped == 0
    rows = sorted(([e.ts, e.node, e.cat, e.name, e.track, e.dur, e.txn_id,
                    sorted((e.args or {}).items())] for e in log.spans()),
                  key=repr)
    pinned("golden.c16.spans", (len(rows), canonical_digest(rows)))


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------


def observed_run():
    sim, cluster = make_xenic()
    obs = Observer(sim, sample_interval_us=20.0).install(cluster)
    run_txns(sim, cluster, [1, 2, 4, 8, 16])
    return obs


def test_chrome_trace_is_valid_and_complete():
    obs = observed_run()
    doc = json.loads(dumps_chrome_trace(obs))
    events = doc["traceEvents"]
    phases = {e["ph"] for e in events}
    assert {"M", "X", "b", "e", "C"} <= phases
    # async txn spans pair up
    assert (len([e for e in events if e["ph"] == "b"])
            == len([e for e in events if e["ph"] == "e"]))
    # one named track per NIC core
    thread_names = {e["args"]["name"] for e in events
                    if e["ph"] == "M" and e["name"] == "thread_name"}
    nic_cores = {"nic.c%d" % c for c in range(3)}
    assert nic_cores <= thread_names
    assert doc["otherData"]["events_dropped"] == 0
    assert doc["otherData"]["events_recorded"] == len(obs.log)


def test_chrome_trace_byte_identical_for_same_seed():
    a = dumps_chrome_trace(observed_run())
    b = dumps_chrome_trace(observed_run())
    assert a == b


def test_chrome_trace_includes_fault_instants():
    r = run_chaos(seed=3, faults="delay=0.2:5,dup=0.05", n_txns=12, obs=True)
    assert r.observer is not None
    events = chrome_trace_events(r.observer, fault_trace=r.trace)
    faults = [e for e in events if e.get("cat") == "fault"]
    assert faults and all(e["ph"] == "i" for e in faults)
    assert {e["name"] for e in faults} <= {"delay", "dup", "drop", "reorder",
                                           "crash", "recover"}


def test_metrics_to_dict_shape():
    obs = observed_run()
    d = metrics_to_dict(obs)
    assert d["spans"] > 0
    assert d["sampler_ticks"] > 0
    assert d["events_dropped"] == 0
    assert "cluster/txn_latency_us" in d["metrics"]["histograms"]


def test_chaos_without_obs_has_no_observer():
    r = run_chaos(seed=3, faults="dup=0.05", n_txns=8)
    assert r.observer is None
