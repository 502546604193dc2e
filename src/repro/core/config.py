"""Xenic system configuration and the §5.7 ablation feature flags."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..hw.params import HardwareParams, TESTBED, WORKER_APPLY_US

__all__ = ["XenicConfig", "ablation_ladder_throughput", "ablation_ladder_latency"]


@dataclass(frozen=True)
class XenicConfig:
    """Feature flags and sizing for a Xenic cluster.

    The five booleans correspond to the design features evaluated in
    Figure 9.  With all of them off, the system degenerates to the
    "Xenic baseline" of §5.7: a DrTM+H-like protocol (separate read /
    lock / validate requests, request-response only, host execution,
    blocking single DMAs) running on SmartNIC hardware.
    """

    # --- ablation flags (§5.7) -------------------------------------------
    smart_remote_ops: bool = True  # combined read+lock / read+validate ops
    ethernet_aggregation: bool = True  # gather-list Ethernet transmission
    async_dma: bool = True  # vectored, continuation-passing DMA
    nic_execution: bool = True  # ship execution to coordinator-side NIC
    multihop_occ: bool = True  # remote-primary execution (Figure 7b)

    # --- sizing ------------------------------------------------------------
    replication_factor: int = 3  # primary + 2 backups (§5)
    host_app_threads: int = 2  # txn initiation/completion threads
    host_worker_threads: int = 3  # Robinhood log-apply workers
    nic_threads: int = 16
    # The LiquidIO carries 16 GB of DRAM: at a few hundred bytes per
    # object the cache holds millions of entries, i.e. the entire hot
    # working set of every §5 benchmark (2.4 GB of TPC-C stock at paper
    # scale).  Sized in objects.
    nic_cache_capacity: int = 1 << 20
    dm: int = 8  # Robinhood displacement limit
    table_fill: float = 0.75  # provisioned host-table occupancy
    log_capacity: int = 1 << 14
    # Host worker applying one log write (wall-µs); see hw.params.
    worker_apply_us: float = WORKER_APPLY_US

    hardware: HardwareParams = field(default_factory=lambda: TESTBED)

    def with_flags(self, **flags) -> "XenicConfig":
        return replace(self, **flags)


def ablation_ladder_throughput() -> list:
    """Figure 9a: baseline -> +smart remote ops -> +Eth aggregation ->
    +async DMA (throughput-oriented features)."""
    base = XenicConfig(
        smart_remote_ops=False,
        ethernet_aggregation=False,
        async_dma=False,
        nic_execution=False,
        multihop_occ=False,
    )
    return [
        ("Xenic baseline", base),
        ("+Smart remote ops", base.with_flags(smart_remote_ops=True)),
        ("+Eth aggregation", base.with_flags(smart_remote_ops=True,
                                             ethernet_aggregation=True)),
        ("+Async DMA", base.with_flags(smart_remote_ops=True,
                                       ethernet_aggregation=True,
                                       async_dma=True)),
    ]


def ablation_ladder_latency() -> list:
    """Figure 9b: baseline -> +smart remote ops -> +NIC execution ->
    +OCC optimization (latency-oriented features)."""
    base = XenicConfig(
        smart_remote_ops=False,
        ethernet_aggregation=True,
        async_dma=True,
        nic_execution=False,
        multihop_occ=False,
    )
    return [
        ("Xenic baseline", base),
        ("+Smart remote ops", base.with_flags(smart_remote_ops=True)),
        ("+NIC execution", base.with_flags(smart_remote_ops=True,
                                           nic_execution=True)),
        ("+OCC optimization", base.with_flags(smart_remote_ops=True,
                                              nic_execution=True,
                                              multihop_occ=True)),
    ]
