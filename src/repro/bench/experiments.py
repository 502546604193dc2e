"""One entry point per table and figure of the paper's evaluation.

Every function returns plain data structures (and optionally prints a
table) at the one configuration EXPERIMENTS.md reports, so
``python -m repro paper``, the examples and EXPERIMENTS.md all read the
same rows (``BENCH_paper.json``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core import XenicConfig, ablation_ladder_latency, ablation_ladder_throughput
from ..hw import (
    BLUEFIELD_OFFPATH,
    CoreGroup,
    DmaEngine,
    DmaOp,
    Fabric,
    NetMessage,
    OffPathNic,
    RdmaNic,
    STINGRAY_OFFPATH,
    XEON_GOLD_5218,
)
from ..hw.params import HOST, LIQUIDIO3, LIQUIDIO3_CPU, NIC_HOST_CORE_RATIO
from ..sim import Event, Gather, Simulator
from ..store import ChainedTable, HopscotchTable, NicIndex, RobinhoodTable
from ..workloads import Retwis, Smallbank, TpccFull, TpccNewOrder
from .report import print_curves, print_table
from .runner import Bench, RunResult, run_sweep

__all__ = [
    "figure2_latency",
    "figure3_batching",
    "figure4_dma",
    "table1_cores",
    "table2_lookup",
    "figure8a_tpcc_new_order",
    "figure8b_tpcc_full",
    "figure8c_retwis",
    "figure8d_smallbank",
    "table3_thread_counts",
    "figure9a_throughput_ablation",
    "figure9b_latency_ablation",
    "offpath_comparison",
]


def _waited(sim: Simulator, call, *args) -> Event:
    """The event a process yields to wait on one model call: built here,
    fired by the call's continuation (its last argument)."""
    done = sim.event()
    call(*args, done.succeed)
    return done


# ---------------------------------------------------------------------------
# Figure 2 — remote-operation roundtrip latency
# ---------------------------------------------------------------------------


def figure2_latency(payload_bytes: int = 256, verbose: bool = False) -> Dict[str, float]:
    """Median RTTs for LiquidIO operations (from host / from NIC) and CX5
    RDMA verbs, mirroring Figure 2 (256 B payloads)."""
    results: Dict[str, float] = {}
    nicp = LIQUIDIO3

    def liquidio_rtt(from_nic: bool, target_work):
        """One request/response between two SmartNIC nodes; ``target_work``
        is a generator factory run at the target NIC before replying."""
        sim = Simulator()
        fabric = Fabric(sim)
        from ..hw.nic import SmartNic

        src = SmartNic(sim, fabric, 0)
        dst = SmartNic(sim, fabric, 1)
        done = sim.event()

        def dst_handler(msg):
            def proc():
                yield _waited(sim, dst.cores.execute_wall, nicp.rpc_handle_us)
                yield from target_work(sim, dst)
                dst.send(NetMessage(1, 0, "resp", payload_bytes, "resp"))
            sim.spawn(proc(), name="dst")

        def src_handler(msg):
            def proc():
                yield _waited(sim, src.cores.execute_wall, nicp.rpc_handle_us)
                if not from_nic:
                    # response crosses PCIe back to the host
                    yield sim.timeout(nicp.pcie_crossing_us)
                done.succeed(sim.now)
            sim.spawn(proc(), name="src")

        dst.set_handler(dst_handler)
        src.set_handler(src_handler)

        def start():
            if not from_nic:
                yield sim.timeout(nicp.pcie_crossing_us)
            src.send(NetMessage(0, 1, "req", payload_bytes, "req"))

        sim.spawn(start(), name="start")
        return sim.run_until_event(done)

    def nop(sim, nic):
        return
        yield

    def dma_read(sim, nic):
        yield _waited(sim, nic.dma.read, payload_bytes)

    def dma_write(sim, nic):
        yield _waited(sim, nic.dma.write, payload_bytes)

    def host_rpc(sim, nic):
        host = CoreGroup(sim, XEON_GOLD_5218, cores=2)
        yield sim.timeout(nicp.pcie_crossing_us)
        yield _waited(sim, host.execute,
                      HOST.rpc_handle_us + HOST.rpc_stack_us)
        yield sim.timeout(nicp.pcie_crossing_us)

    for source, from_nic in (("host", False), ("nic", True)):
        results["lio_nic_rpc_from_%s" % source] = liquidio_rtt(from_nic, nop)
        results["lio_read_from_%s" % source] = liquidio_rtt(from_nic, dma_read)
        results["lio_write_from_%s" % source] = liquidio_rtt(from_nic, dma_write)
        results["lio_host_rpc_from_%s" % source] = liquidio_rtt(from_nic, host_rpc)

    # CX5 RDMA verbs
    def rdma_rtt(kind):
        sim = Simulator()
        hosts = [CoreGroup(sim, XEON_GOLD_5218, cores=2) for _ in range(2)]
        a = RdmaNic(sim, 0, host_cores=hosts[0])
        b = RdmaNic(sim, 1, host_cores=hosts[1])

        def proc():
            if kind == "rpc":
                yield _waited(sim, a.rpc, b, payload_bytes, payload_bytes)
            else:
                yield _waited(sim, a.one_sided, b, kind, payload_bytes)
            return sim.now

        p = sim.spawn(proc(), name="rdma")
        sim.run()
        return p.value

    results["cx5_read"] = rdma_rtt("read")
    results["cx5_write"] = rdma_rtt("write")
    results["cx5_atomic"] = rdma_rtt("atomic")
    results["cx5_rpc"] = rdma_rtt("rpc")

    if verbose:
        print_table(
            "Figure 2: roundtrip latency (us), %dB payload" % payload_bytes,
            ["operation", "RTT (us)"],
            sorted(results.items()),
        )
    return results


# ---------------------------------------------------------------------------
# Figure 3 — remote write throughput with/without batching
# ---------------------------------------------------------------------------


def figure3_batching(
    sizes: Tuple[int, ...] = (16, 64, 256),
    ops_per_sender: int = 250,
    verbose: bool = False,
) -> Dict[str, Dict[int, float]]:
    """Remote write throughput (Mops/s) to NIC DRAM and host DRAM, with and
    without batching, plus CX5 RDMA WRITE throughput (§3.4)."""
    out: Dict[str, Dict[int, float]] = {}
    n_senders = 5

    def liquidio_run(size: int, to_host: bool, batched: bool) -> float:
        sim = Simulator()
        fabric = Fabric(sim)
        from ..core.config import XenicConfig
        from ..core.nic_runtime import NicRuntime
        from ..hw.nic import SmartNic

        target = SmartNic(sim, fabric, 0, aggregation=batched)
        # batched mode coalesces contiguous host-memory writes into
        # vectored/merged DMA ops, exactly like the log-append path
        runtime = NicRuntime(
            sim, target,
            XenicConfig(async_dma=batched, ethernet_aggregation=batched),
        )
        senders = [
            SmartNic(sim, fabric, i + 1, aggregation=batched)
            for i in range(n_senders)
        ]
        for s in senders:
            s.set_handler(lambda msg: None)
        completed = [0]
        done = sim.event()

        def handler(msg):
            def proc():
                yield _waited(sim, target.cores.execute_wall,
                              runtime.msg_handle_us)
                if to_host:
                    yield _waited(sim, runtime.dma_log_append, size)
                else:
                    yield sim.timeout(target.params.local_dram_us)
                completed[0] += 1
                if completed[0] == n_senders * ops_per_sender:
                    done.succeed(sim.now)
            sim.spawn(proc(), name="h")

        target.set_handler(handler)

        def sender(s):
            for _ in range(ops_per_sender):
                s.send(NetMessage(s.node_id, 0, "w", size + 16, None))
                # offered load high enough to saturate
                yield sim.timeout(0.02)

        for s in senders:
            sim.spawn(sender(s), name="snd")
        end = sim.run_until_event(done)
        return n_senders * ops_per_sender / end  # Mops/s

    def rdma_run(size: int) -> float:
        sim = Simulator()
        hosts = [CoreGroup(sim, XEON_GOLD_5218, cores=4) for _ in range(n_senders + 1)]
        target = RdmaNic(sim, 0, host_cores=hosts[0])
        nics = [RdmaNic(sim, i + 1, host_cores=hosts[i + 1]) for i in range(n_senders)]
        finished = [0]
        done = sim.event()

        def sender(nic):
            outstanding = []
            for _ in range(ops_per_sender):
                outstanding.append(_waited(sim, nic.write, target, size))
                if len(outstanding) >= 64:  # doorbell batch window
                    yield outstanding.pop(0)
            for ev in outstanding:
                yield ev
            finished[0] += 1
            if finished[0] == n_senders:
                done.succeed(sim.now)

        for nic in nics:
            sim.spawn(sender(nic), name="s")
        end = sim.run_until_event(done)
        return n_senders * ops_per_sender / end

    for label, to_host, batched in (
        ("nic_dram_batched", False, True),
        ("nic_dram_single", False, False),
        ("host_dram_batched", True, True),
        ("host_dram_single", True, False),
    ):
        out[label] = {size: liquidio_run(size, to_host, batched) for size in sizes}
    out["cx5_rdma"] = {size: rdma_run(size) for size in sizes}

    if verbose:
        rows = []
        for label, by_size in out.items():
            for size, mops in sorted(by_size.items()):
                rows.append([label, size, "%.1f" % mops])
        print_table("Figure 3: remote write throughput (Mops/s)",
                    ["target/mode", "size (B)", "Mops/s"], rows)
    return out


# ---------------------------------------------------------------------------
# Figure 4 — DMA engine throughput and latency
# ---------------------------------------------------------------------------


def figure4_dma(
    sizes: Tuple[int, ...] = (16, 64, 256, 1024),
    total_ops: int = 2000,
    verbose: bool = False,
) -> Dict[str, Dict]:
    """DMA throughput (Mops/s) and per-op latency for single-request and
    full 15-element vectored submissions (§3.5)."""
    results: Dict[str, Dict] = {"throughput": {}, "latency": {}}

    def run(size: int, vector: int, is_read: bool):
        sim = Simulator()
        engine = DmaEngine(sim)
        max_outstanding = 2 * engine.params.queues

        def submitter():
            remaining = total_ops
            outstanding = []
            while remaining > 0:
                n = min(vector, remaining)
                # one vector, joined through its ops' slots
                vector_done = Gather()
                engine.submit([DmaOp(size=size, is_read=is_read,
                                     then=vector_done.slot())
                               for _ in range(n)])
                done = sim.event()
                vector_done.wait(done.succeed)
                outstanding.append(done)
                remaining -= n
                yield sim.timeout(engine.submission_cost_us)
                # keep the queues fed without unbounded backlog
                if len(outstanding) >= max_outstanding:
                    yield outstanding.pop(0)
            for ev in outstanding:
                yield ev

        sim.spawn(submitter(), name="sub")
        sim.run()
        tput = total_ops / sim.now
        lat = engine.read_latency.mean if is_read else engine.write_latency.mean
        return tput, lat

    for is_read, tag in ((True, "read"), (False, "write")):
        for vector, vtag in ((1, "x1"), (15, "x15")):
            key = "%s_%s" % (tag, vtag)
            results["throughput"][key] = {}
            results["latency"][key] = {}
            for size in sizes:
                tput, lat = run(size, vector, is_read)
                results["throughput"][key][size] = tput
                results["latency"][key][size] = lat

    if verbose:
        rows = []
        for key in results["throughput"]:
            for size in sizes:
                rows.append([key, size,
                             "%.2f" % results["throughput"][key][size],
                             "%.2f" % results["latency"][key][size]])
        print_table("Figure 4: DMA engine",
                    ["mode", "size (B)", "Mops/s", "latency (us)"], rows)
    return results


# ---------------------------------------------------------------------------
# Table 1 — core performance calibration
# ---------------------------------------------------------------------------


def table1_cores(verbose: bool = False) -> Dict[str, float]:
    """The ARM/Xeon performance ratios that parameterize the CPU model."""
    sim = Simulator()
    host = CoreGroup(sim, XEON_GOLD_5218, cores=1)
    nic = CoreGroup(sim, LIQUIDIO3_CPU, cores=1)
    ratios = {
        "coremark_multi_ratio": XEON_GOLD_5218.coremark_per_thread
        / LIQUIDIO3_CPU.coremark_per_thread,
        "coremark_single_ratio": XEON_GOLD_5218.coremark_single
        / LIQUIDIO3_CPU.coremark_single,
        "model_job_stretch": nic.service_us(1.0) / host.service_us(1.0),
        "nic_host_core_ratio": NIC_HOST_CORE_RATIO,
    }
    if verbose:
        print_table("Table 1: NIC ARM vs host Xeon",
                    ["metric", "value"],
                    [[k, "%.3f" % v] for k, v in ratios.items()])
    return ratios


# ---------------------------------------------------------------------------
# Table 2 — lookup efficiency at 90% occupancy
# ---------------------------------------------------------------------------


@dataclass
class LookupRow:
    structure: str
    objects_read: float
    roundtrips: float


def table2_lookup(verbose: bool = False) -> List[LookupRow]:
    """Mean objects read and roundtrips per lookup at 90% occupancy for
    Xenic Robinhood (Dm in {8,16,32,unlimited}), FaRM Hopscotch (H=8), and
    DrTM+H chained buckets (B in {4,8,16}).

    The paper uses 8M uniform-random keys; 20,000 here is scaled but the
    occupancy and all structure parameters match.
    """
    from ..sim.rng import RngStream

    rng = RngStream(3, "table2")
    keys = [rng.randint(0, 1 << 60) for _ in range(20000)]
    keys = list(dict.fromkeys(keys))
    rows: List[LookupRow] = []

    def robinhood(dm: Optional[int]) -> LookupRow:
        seg = 8
        capacity = (len(keys) * 10 // 9 // seg) * seg
        if dm is None:
            table = RobinhoodTable.unlimited(capacity, segment_size=seg)
            label = "Xenic Robinhood, no limit"
        else:
            table = RobinhoodTable(capacity, dm=dm, segment_size=seg)
            label = "Xenic Robinhood, Dm=%d" % dm
        for k in keys:
            table.insert(k)
        index = NicIndex(table, cache_capacity=1, value_size=64)
        # first pass warms the index's location hints (steady state);
        # the second pass measures the per-lookup cost
        for k in keys:
            index.miss_cost(k)
        objs = 0
        rts = 0
        for k in keys:
            cost = index.miss_cost(k)
            objs += cost.objects_read
            rts += cost.roundtrips
        return LookupRow(label, objs / len(keys), rts / len(keys))

    for dm in (8, 16, 32, None):
        rows.append(robinhood(dm))

    # FaRM Hopscotch H=8
    capacity = len(keys) * 10 // 9
    hop = HopscotchTable(capacity, neighborhood=8)
    for k in keys:
        hop.insert(k)
    objs = rts = 0
    for k in keys:
        res = hop.lookup(k)
        objs += res.objects_read
        rts += res.roundtrips
    rows.append(LookupRow("FaRM Hopscotch, H=8", objs / len(keys), rts / len(keys)))

    # DrTM+H chained B in {4, 8, 16}
    for b in (4, 8, 16):
        n_buckets = len(keys) * 10 // 9 // b
        table = ChainedTable(n_buckets, bucket_size=b)
        for k in keys:
            table.insert(k)
        objs = rts = 0
        for k in keys:
            res = table.lookup(k)
            objs += res.objects_read
            rts += res.roundtrips
        rows.append(LookupRow("DrTM+H Chained, B=%d" % b,
                              objs / len(keys), rts / len(keys)))

    if verbose:
        print_table("Table 2: lookup cost at 90% occupancy",
                    ["structure", "objects read", "roundtrips"],
                    [[r.structure, "%.2f" % r.objects_read,
                      "%.2f" % r.roundtrips] for r in rows])
    return rows


# ---------------------------------------------------------------------------
# Figure 8 — benchmark throughput/latency curves
# ---------------------------------------------------------------------------

FIG8_SYSTEMS = ("xenic", "drtmh", "drtmh_nc", "fasst", "drtmr")


def _fig8_sweep(workload, workload_kwargs, concurrencies,
                systems=FIG8_SYSTEMS, n_nodes=6, window_us=400.0,
                warmup_us=150.0, verbose=False, title="",
                counted_label=None,
                network_gbps=None) -> Dict[str, List[RunResult]]:
    """Run one curve per system on a fresh ``WORKLOADS[workload]``."""
    from ..workloads import WORKLOADS

    def factory():
        wl = WORKLOADS[workload](n_nodes, **workload_kwargs)
        if counted_label is not None:
            wl.counted_label = counted_label
        return wl

    hardware = None
    if network_gbps is not None and network_gbps != 100.0:
        from ..hw.params import testbed_params

        hardware = testbed_params(network_gbps)
    curves = {
        system: run_sweep(system, factory, list(concurrencies),
                          n_nodes=n_nodes, warmup_us=warmup_us,
                          window_us=window_us, hardware=hardware)
        for system in systems
    }
    if verbose:
        print_curves(title, curves)
    return curves


def figure8a_tpcc_new_order(verbose: bool = False):
    """TPC-C New-Order (DrTM+H-style uniform access), 5 systems."""
    # stock rows dominate contention at reduced scale: provision enough
    # that concurrent new-orders rarely collide (the paper's 100k-item
    # stock tables make conflicts negligible)
    scale = dict(warehouses_per_server=24, stock_per_warehouse=1200,
                 customers_per_warehouse=30)
    return _fig8_sweep(
        "tpcc_no", scale, (2, 8, 24, 64), window_us=600.0,
        verbose=verbose, title="Figure 8a: TPC-C New-Order",
    )


def figure8b_tpcc_full(verbose: bool = False):
    """Full TPC-C mix, Xenic vs DrTM+R; throughput counts new-orders only
    (§5.3).

    The paper's DrTM+R comparison point is network-bound (56 Gbps at 72
    warehouses/server); at reduced scale the equivalent regime needs a
    proportionally slower wire, so both systems run at a 12 Gbps link
    where replication traffic binds."""
    scale = dict(warehouses_per_server=24, stock_per_warehouse=150,
                 customers_per_warehouse=30)
    return _fig8_sweep(
        "tpcc", scale, (2, 8, 24, 64), systems=("xenic", "drtmr"),
        window_us=800.0, counted_label="new_order", network_gbps=12.0,
        verbose=verbose, title="Figure 8b: TPC-C full mix (new-orders/s)",
    )


def figure8c_retwis(verbose: bool = False):
    return _fig8_sweep(
        "retwis", dict(keys_per_server=20000), (2, 8, 32, 96),
        verbose=verbose, title="Figure 8c: Retwis",
    )


def figure8d_smallbank(verbose: bool = False):
    return _fig8_sweep(
        "smallbank",
        dict(accounts_per_server=8000, hot_keys_fraction=0.25),
        (2, 16, 64, 160), verbose=verbose, title="Figure 8d: Smallbank",
    )


# ---------------------------------------------------------------------------
# Table 3 — minimum thread counts at >= 95% of peak
# ---------------------------------------------------------------------------


def table3_thread_counts(verbose: bool = False) -> Dict[str, Dict[str, float]]:
    """Minimum threads sustaining >=95% of peak throughput, per system and
    workload; Xenic NIC threads are Coremark-normalized (x0.31)."""
    n_nodes = 3
    conc = 64
    window = 300.0

    def make_wl(name):
        if name == "tpcc_no":
            return TpccNewOrder(n_nodes, warehouses_per_server=4,
                                stock_per_warehouse=400,
                                customers_per_warehouse=50)
        if name == "retwis":
            return Retwis(n_nodes, keys_per_server=10000)
        return Smallbank(n_nodes, accounts_per_server=6000,
                         hot_keys_fraction=0.25)

    def xenic_tput(wl_name, app, workers, nic):
        config = XenicConfig(host_app_threads=app, host_worker_threads=workers,
                             nic_threads=nic)
        bench = Bench("xenic", make_wl(wl_name), n_nodes=n_nodes,
                      xenic_config=config)
        return bench.measure(conc, warmup_us=120.0, window_us=window).throughput_per_server

    def baseline_tput(system, wl_name, threads):
        bench = Bench(system, make_wl(wl_name), n_nodes=n_nodes,
                      baseline_host_threads=threads)
        return bench.measure(conc, warmup_us=120.0, window_us=window).throughput_per_server

    host_grid = [2, 4, 8, 12, 16, 20, 24, 32]
    nic_grid = [4, 8, 12, 16, 20, 24]
    out: Dict[str, Dict[str, float]] = {}
    workloads = ("tpcc_no", "retwis", "smallbank")
    for wl_name in workloads:
        row: Dict[str, float] = {}
        # Xenic: fix generous NIC threads, shrink host; then shrink NIC.
        base_app, base_workers = (8, 10) if wl_name == "tpcc_no" else (2, 3)
        peak = xenic_tput(wl_name, base_app, base_workers, 24)
        nic_needed = 24
        for nic in nic_grid:
            if xenic_tput(wl_name, base_app, base_workers, nic) >= 0.95 * peak:
                nic_needed = nic
                break
        host_needed = base_app + base_workers
        row["xenic_host"] = host_needed
        row["xenic_nic"] = nic_needed
        row["xenic_norm"] = host_needed + nic_needed * NIC_HOST_CORE_RATIO
        for system in ("drtmh", "fasst"):
            peak = baseline_tput(system, wl_name, 32)
            needed = 32
            for t in host_grid:
                if baseline_tput(system, wl_name, t) >= 0.95 * peak:
                    needed = t
                    break
            row[system] = needed
        out[wl_name] = row

    if verbose:
        rows = [[wl,
                 "%.1f (%d, %d)" % (r["xenic_norm"], r["xenic_host"], r["xenic_nic"]),
                 r["drtmh"], r["fasst"]]
                for wl, r in out.items()]
        print_table("Table 3: normalized thread counts",
                    ["benchmark", "Xenic norm (host, NIC)", "DrTM+H", "FaSST"],
                    rows)
    return out


# ---------------------------------------------------------------------------
# Figure 9 — impact of optimizations
# ---------------------------------------------------------------------------


def figure9a_throughput_ablation(verbose: bool = False):
    """Retwis throughput, enabling throughput features step by step, plus
    the DrTM+H reference."""
    n_nodes = 3
    keys = 10000
    conc = 96
    window = 300.0
    results = []
    for label, config in ablation_ladder_throughput():
        bench = Bench("xenic", Retwis(n_nodes, keys_per_server=keys),
                      n_nodes=n_nodes, xenic_config=config)
        r = bench.measure(conc, warmup_us=120.0, window_us=window)
        results.append((label, r.throughput_per_server))
    bench = Bench("drtmh", Retwis(n_nodes, keys_per_server=keys), n_nodes=n_nodes)
    drtmh = bench.measure(conc, warmup_us=120.0, window_us=window)
    results.append(("DrTM+H", drtmh.throughput_per_server))
    if verbose:
        base = results[0][1]
        print_table("Figure 9a: Retwis throughput ablation",
                    ["configuration", "txn/s/server", "vs baseline"],
                    [[label, "%.0f" % tput, "%.2fx" % (tput / base)]
                     for label, tput in results])
    return results


def figure9b_latency_ablation(verbose: bool = False):
    """Smallbank median latency at low load, enabling latency features
    step by step, plus the DrTM+H reference."""
    n_nodes = 3
    accounts = 6000
    conc = 2
    window = 400.0
    results = []
    for label, config in ablation_ladder_latency():
        bench = Bench("xenic",
                      Smallbank(n_nodes, accounts_per_server=accounts,
                                hot_keys_fraction=0.25),
                      n_nodes=n_nodes, xenic_config=config)
        r = bench.measure(conc, warmup_us=150.0, window_us=window)
        results.append((label, r.median_latency_us))
    bench = Bench("drtmh",
                  Smallbank(n_nodes, accounts_per_server=accounts,
                            hot_keys_fraction=0.25), n_nodes=n_nodes)
    drtmh = bench.measure(conc, warmup_us=150.0, window_us=window)
    results.append(("DrTM+H", drtmh.median_latency_us))
    if verbose:
        base = results[0][1]
        print_table("Figure 9b: Smallbank latency ablation",
                    ["configuration", "median latency (us)", "vs baseline"],
                    [[label, "%.1f" % lat, "%.2fx" % (lat / base)]
                     for label, lat in results])
    return results


# ---------------------------------------------------------------------------
# §3.1 — off-path SmartNIC comparison
# ---------------------------------------------------------------------------


def offpath_comparison(verbose: bool = False) -> Dict[str, Dict[str, float]]:
    out = {}
    for params in (BLUEFIELD_OFFPATH, STINGRAY_OFFPATH):
        nic = OffPathNic(Simulator(), params)
        out[params.name] = {
            "remote_to_host_write_us": params.remote_to_host_write_us,
            "remote_to_soc_write_us": params.remote_to_soc_write_us,
            "soc_to_host_write_us": params.soc_to_host_write_us,
            "offload_penalty_us": nic.offload_penalty_us(),
        }
    if verbose:
        rows = []
        for name, vals in out.items():
            for metric, v in vals.items():
                rows.append([name, metric, "%.1f" % v])
        print_table("Off-path SmartNIC latency (us), §3.1",
                    ["device", "metric", "us"], rows)
    return out
