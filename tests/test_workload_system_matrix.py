"""Integration matrix: every workload runs on every system.

Tiny-scale runs that catch cross-cutting regressions (a protocol change
breaking one workload shape, a workload change breaking one baseline).
"""

import pytest

from repro.bench import Bench
from repro.workloads import Retwis, Smallbank, TpccFull, TpccNewOrder

SYSTEMS = ("xenic", "drtmh", "drtmh_nc", "fasst", "drtmr")


def tiny_workload(name):
    if name == "tpcc_no":
        return TpccNewOrder(3, warehouses_per_server=2,
                            stock_per_warehouse=150,
                            customers_per_warehouse=10)
    if name == "tpcc":
        wl = TpccFull(3, warehouses_per_server=2, stock_per_warehouse=150,
                      customers_per_warehouse=10)
        wl.counted_label = "new_order"
        return wl
    if name == "retwis":
        return Retwis(3, keys_per_server=1200)
    return Smallbank(3, accounts_per_server=800, hot_keys_fraction=0.25)


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("workload", ("tpcc_no", "tpcc", "retwis", "smallbank"))
def test_matrix(system, workload):
    bench = Bench(system, tiny_workload(workload), n_nodes=3)
    r = bench.measure(3, warmup_us=60, window_us=200)
    assert r.commits > 0, "%s/%s made no progress" % (system, workload)
    assert r.median_latency_us > 0 or r.throughput_per_server == 0
    # protocol plumbing sanity: no misrouted responses or acks (in-flight
    # transactions legitimately hold locks while the closed loop runs, so
    # lock state is not checked here)
    if system == "xenic":
        for proto in bench.cluster.protocols:
            assert proto.stats.get("stray_responses") == 0
            assert proto.stats.get("stray_done") == 0
            assert proto.stats.get("stray_log_acks") == 0
            assert proto.stats.get("commit_unlock_mismatch") == 0
