"""Design-choice ablations beyond the paper's Figure 9.

DESIGN.md calls out three Xenic design choices worth sweeping:

* NIC object-cache capacity — hit rate vs PCIe read pressure (§4.3.3);
* the Robinhood displacement limit ``Dm`` — lookup read size vs overflow
  rate (§4.1.2);
* the SmartNIC platform requirements of §4.3.4 — what happens to Xenic's
  latency if the NIC's host-memory path is as slow as the measured
  off-path devices.
"""

from __future__ import annotations

from typing import Dict, List

from ..core import XenicConfig
from ..hw.params import BLUEFIELD_OFFPATH, STINGRAY_OFFPATH
from ..sim.rng import RngStream
from ..store import NicIndex, RobinhoodTable
from ..workloads import Smallbank
from .report import print_table
from .runner import Bench

__all__ = [
    "cache_capacity_sweep",
    "displacement_limit_sweep",
    "offpath_platform_check",
]


def cache_capacity_sweep(verbose: bool = False) -> List[Dict[str, float]]:
    """Sweep the NIC cache size on Smallbank at 48 contexts per node: as
    the cache shrinks below the hot set, DMA lookups replace NIC-DRAM hits
    and throughput falls while latency rises (§4.3.3)."""
    n_nodes = 3
    rows = []
    for cap in (64, 1024, 16384, 1 << 20):
        config = XenicConfig(nic_cache_capacity=cap)
        bench = Bench(
            "xenic",
            Smallbank(n_nodes, accounts_per_server=4000,
                      hot_keys_fraction=0.25),
            n_nodes=n_nodes, xenic_config=config,
        )
        r = bench.measure(48, warmup_us=120.0, window_us=300.0)
        hits = sum(n.index.hits for n in bench.cluster.nodes)
        misses = sum(n.index.misses for n in bench.cluster.nodes)
        rows.append({
            "capacity": cap,
            "throughput": r.throughput_per_server,
            "median_us": r.median_latency_us,
            "hit_rate": hits / max(1, hits + misses),
        })
    if verbose:
        print_table(
            "Ablation: NIC cache capacity (Smallbank)",
            ["capacity", "txn/s/server", "median (us)", "hit rate"],
            [[row["capacity"], "%.0f" % row["throughput"],
              "%.1f" % row["median_us"], "%.2f" % row["hit_rate"]]
             for row in rows],
        )
    return rows


def displacement_limit_sweep(verbose: bool = False) -> List[Dict[str, float]]:
    """Sweep the Robinhood displacement limit over 8,000 keys at 90%
    occupancy: small Dm keeps DMA reads tiny but pushes more keys to
    overflow buckets (extra roundtrips); large Dm does the reverse
    (§4.1.2)."""
    rng = RngStream(5, "dm-sweep")
    keys = list(dict.fromkeys(rng.randint(0, 1 << 60) for _ in range(8000)))
    rows = []
    for dm in (2, 4, 8, 16, 32):
        seg = 8
        capacity = (int(len(keys) / 0.9) // seg) * seg
        table = RobinhoodTable(capacity, dm=dm, segment_size=seg)
        for k in keys:
            table.insert(k)
        index = NicIndex(table, cache_capacity=1, value_size=64)
        for k in keys:
            index.miss_cost(k)  # warm location hints
        objs = rts = 0
        for k in keys:
            cost = index.miss_cost(k)
            objs += cost.objects_read
            rts += cost.roundtrips
        rows.append({
            "dm": dm,
            "objects_read": objs / len(keys),
            "roundtrips": rts / len(keys),
            "overflow_frac": table.overflow_count / len(keys),
        })
    if verbose:
        print_table(
            "Ablation: Robinhood displacement limit",
            ["Dm", "objects/lookup", "roundtrips", "overflow frac"],
            [[row["dm"], "%.2f" % row["objects_read"],
              "%.3f" % row["roundtrips"], "%.3f" % row["overflow_frac"]]
             for row in rows],
        )
    return rows


def offpath_platform_check(verbose: bool = False) -> Dict[str, float]:
    """§4.3.4: Xenic's latency edge requires an efficient NIC-to-host
    path.  Re-run Smallbank low-load latency with the PCIe crossing
    inflated to the measured off-path SoC-to-host costs; the advantage
    should evaporate."""
    import dataclasses

    n_nodes = 3
    results = {}
    base_cfg = XenicConfig()
    variants = {
        "onpath_liquidio": None,  # stock parameters
        "offpath_bluefield": BLUEFIELD_OFFPATH.soc_to_host_write_us,
        "offpath_stingray": STINGRAY_OFFPATH.soc_to_host_write_us,
    }
    for name, crossing in variants.items():
        cfg = base_cfg
        if crossing is not None:
            hw = base_cfg.hardware
            nic = dataclasses.replace(hw.nic, pcie_crossing_us=crossing)
            cfg = dataclasses.replace(base_cfg,
                                      hardware=dataclasses.replace(hw, nic=nic))
        bench = Bench(
            "xenic",
            Smallbank(n_nodes, accounts_per_server=4000,
                      hot_keys_fraction=0.25),
            n_nodes=n_nodes, xenic_config=cfg,
        )
        r = bench.measure(2, warmup_us=120.0, window_us=300.0)
        results[name] = r.median_latency_us
    if verbose:
        print_table(
            "Ablation: platform host-memory path (Smallbank median, low load)",
            ["platform", "median latency (us)"],
            [[k, "%.1f" % v] for k, v in results.items()],
        )
    return results
