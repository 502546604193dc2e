"""Tests for the benchmark harness and the microbenchmark experiments."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import Bench, run_sweep
from repro.bench.report import format_table
from repro.bench.runner import RunResult
from repro.workloads import Retwis, Smallbank, TpccNewOrder


def small_smallbank(n=3):
    return Smallbank(n, accounts_per_server=1500, hot_keys_fraction=0.25)


def test_bench_builds_all_systems():
    for system in ("xenic", "drtmh", "drtmh_nc", "fasst", "drtmr"):
        bench = Bench(system, small_smallbank(), n_nodes=3)
        assert len(bench.cluster.protocols) == 3


def test_bench_rejects_unknown_system():
    with pytest.raises(ValueError):
        Bench("nope", small_smallbank(), n_nodes=3)


def test_measure_produces_sane_result():
    bench = Bench("xenic", small_smallbank(), n_nodes=3)
    r = bench.measure(4, warmup_us=50, window_us=150)
    assert isinstance(r, RunResult)
    assert r.throughput_per_server > 0
    assert r.median_latency_us > 0
    assert r.p99_latency_us >= r.median_latency_us
    assert r.commits > 0
    assert "nic_core_util" in r.extra


def test_sweep_requires_ascending_concurrency():
    bench = Bench("xenic", small_smallbank(), n_nodes=3)
    bench.measure(8, warmup_us=30, window_us=60)
    with pytest.raises(ValueError):
        bench.measure(4)


def test_sweep_reuses_cluster_and_increases_load():
    results = run_sweep("xenic", small_smallbank, [2, 8],
                        n_nodes=3, warmup_us=50, window_us=150)
    assert [r.concurrency for r in results] == [2, 8]
    assert results[1].throughput_per_server > results[0].throughput_per_server


def test_run_point_baseline():
    r = Bench("fasst", small_smallbank(), n_nodes=3).measure(
        4, warmup_us=50, window_us=150)
    assert r.system == "fasst" and r.throughput_per_server > 0
    assert "host_util" in r.extra


def test_tpcc_counted_label_filters_throughput():
    from repro.workloads import TpccFull

    wl = TpccFull(3, warehouses_per_server=4, stock_per_warehouse=200,
                  customers_per_warehouse=20)
    wl.counted_label = "new_order"
    bench = Bench("xenic", wl, n_nodes=3)
    r = bench.measure(8, warmup_us=80, window_us=250)
    # counted new-orders are a strict subset of all commits
    assert 0 < r.throughput_per_server
    assert r.commits > r.throughput_per_server * r.window_us * 3 / 1e6 * 0.9


def test_workload_thread_hints_applied():
    wl = TpccNewOrder(3, warehouses_per_server=2, stock_per_warehouse=100,
                      customers_per_warehouse=10)
    bench = Bench("xenic", wl, n_nodes=3)
    node = bench.cluster.nodes[0]
    assert node.host_app_cores.cores == wl.xenic_app_threads
    assert node.worker_cores.cores == wl.xenic_worker_threads
    b2 = Bench("fasst", wl, n_nodes=3)
    assert b2.cluster.nodes[0].host_cores.cores == wl.baseline_host_threads


def test_xenic_prewarm_fills_cache():
    bench = Bench("xenic", small_smallbank(), n_nodes=3)
    node = bench.cluster.nodes[0]
    assert node.index.cache_size == len(node.tables[0])


def test_format_table_alignment():
    out = format_table(["a", "bb"], [[1, 2.5], ["xyz", 10000.0]])
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("a")
    assert "10000" in lines[3]


def test_format_table_float_edge_cases():
    out = format_table(
        ["v"],
        [[float("nan")], [float("inf")], [float("-inf")],
         [-12.5], [-3.456], [-12345.6], [0.0]])
    cells = [line.strip() for line in out.splitlines()[2:]]
    assert cells == ["nan", "inf", "-inf", "-12.5", "-3.46", "-12346", "0"]


def test_to_jsonable_handles_dataclasses_and_non_finite():
    import json

    from repro.bench import to_jsonable

    r = RunResult(system="xenic", workload="w", concurrency=2,
                  throughput_per_server=1.5, median_latency_us=float("nan"),
                  p99_latency_us=float("inf"), mean_latency_us=2.0,
                  commits=3, aborts=0, window_us=100.0,
                  extra={"util": 0.5, "obj": object()})
    out = to_jsonable([r, {"k": (1, 2)}, None, True])
    json.dumps(out)  # everything must be serializable
    assert out[0]["median_latency_us"] is None
    assert out[0]["p99_latency_us"] is None
    assert out[0]["mean_latency_us"] == 2.0
    assert out[0]["extra"]["obj"].startswith("<object")
    assert out[1] == {"k": [1, 2]}
    assert out[2] is None and out[3] is True


def test_write_results_json(tmp_path):
    import json

    from repro.bench import write_results_json

    r = RunResult(system="xenic", workload="w", concurrency=2,
                  throughput_per_server=1.0, median_latency_us=1.0,
                  p99_latency_us=2.0, mean_latency_us=1.5,
                  commits=3, aborts=0, window_us=100.0)
    path = write_results_json(str(tmp_path / "out.json"), "exp", [r])
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["experiment"] == "exp"
    assert doc["results"][0]["system"] == "xenic"


def test_workload_by_name():
    from repro.bench import workload_by_name

    wl = workload_by_name("smallbank", 3, seed=2)
    assert isinstance(wl, Smallbank)
    with pytest.raises(ValueError):
        workload_by_name("nope", 3)


def test_cli_trace_command_writes_valid_trace(tmp_path):
    import json

    from repro.__main__ import main

    out = tmp_path / "t.json"
    rc = main(["trace", "--workload", "smallbank", "--nodes", "3",
               "--warmup", "30", "--window", "80", "--concurrency", "2",
               "--trace-out", str(out)])
    assert rc == 0
    with open(out) as fh:
        doc = json.load(fh)
    events = doc["traceEvents"]
    assert any(e["ph"] == "b" for e in events)  # txn spans
    assert any(e["ph"] == "C" for e in events)  # counter samples
    assert any(e.get("cat") == "fault" for e in events)  # default faults


def test_cli_list_and_metrics(capsys, tmp_path):
    import json

    from repro.__main__ import main

    assert main(["list"]) == 0
    assert "trace" in capsys.readouterr().out
    out = tmp_path / "m.json"
    rc = main(["metrics", "--workload", "smallbank", "--nodes", "3",
               "--warmup", "30", "--window", "80", "--concurrency", "2",
               "--faults", "none", "--metrics-out", str(out)])
    assert rc == 0
    with open(out) as fh:
        doc = json.load(fh)
    assert doc["metrics"]["counters"]
    assert doc["sampler_ticks"] > 0


def test_retwis_runs_on_all_systems_quickly():
    for system in ("xenic", "drtmr"):
        bench = Bench(system, Retwis(3, keys_per_server=1500), n_nodes=3)
        r = bench.measure(4, warmup_us=50, window_us=120)
        assert r.commits > 0


def test_bench_hardware_override_applies_to_both_system_kinds():
    from repro.hw.params import testbed_params

    hw = testbed_params(50.0)
    b1 = Bench("xenic", small_smallbank(), n_nodes=3, hardware=hw)
    assert b1.cluster.nodes[0].nic.port.params.bandwidth_gbps == 50.0
    b2 = Bench("drtmh", small_smallbank(), n_nodes=3, hardware=hw)
    assert b2.cluster.nodes[0].rdma.params.bandwidth_gbps == 50.0


ROOT = Path(__file__).resolve().parent.parent

# Imports every module of the package and of the benchmark suite, then
# builds and runs a small bench, in a fresh interpreter.
NO_NUMPY_RUN = """
import importlib, pkgutil, sys
sys.path[:0] = [%r, %r]
import repro
for mod in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(mod.name)
for name in ("run", "harness", "spec", "layers", "audit", "counters"):
    importlib.import_module(name)
from repro.bench import Bench
from repro.workloads import Smallbank
bench = Bench("xenic", Smallbank(3, accounts_per_server=200), n_nodes=3)
assert bench.measure(4, warmup_us=20.0, window_us=60.0).commits > 0
print("numpy" in sys.modules)
""" % (str(ROOT / "src"), str(ROOT / "benchmarks" / "suite"))


def test_a_run_imports_no_numpy():
    """numpy is a test dependency only (one test's oracle): no module of
    the package or of the benchmark suite imports it, so a run does not
    pay its import time or its memory."""
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY_RUN],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["False"]
