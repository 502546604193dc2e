"""Per-layer counters, read from public attributes around the peak phase.

``snapshot`` sums each layer's cumulative counters over the cluster;
``derive`` turns the difference of two snapshots into the per-layer
metrics of ``spec.PER_LAYER``.  ``/txn`` means per transaction committed
between the two snapshots (warm-up and window alike, so numerator and
denominator cover the same interval).  All of it is simulated state: a
pure function of (workload, seed, seconds).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

from spec import PER_LAYER

_GBPS_TO_BYTES_PER_US = 125.0


def is_xenic(bench) -> bool:
    return bench.system.startswith("xenic")


def total_commits(bench) -> int:
    return sum(p.stats.get("commits") for p in bench.cluster.protocols)


def snapshot(bench) -> Counter:
    cluster, sim = bench.cluster, bench.sim
    snap: Counter = Counter()
    snap["sim_us"] = sim.now
    snap["events"] = sim.events_scheduled
    for proto in cluster.protocols:
        for key, n in proto.stats.as_dict().items():
            snap["stat." + key] += n
    if not is_xenic(bench):
        for node in cluster.nodes:
            snap["rdma_bytes"] += node.rdma.wire_bytes
            snap["rdma_retries"] += node.rdma.retries
            snap["host_busy_us"] += node.host_cores.busy_us
        return snap
    snap["wire_msgs"] = cluster.fabric.messages_delivered
    snap["wire_bytes"] = cluster.fabric.bytes_delivered
    for node, proto in zip(cluster.nodes, cluster.protocols):
        port = node.nic.port
        snap["eth_payloads"] += port.messages_sent
        snap["eth_packets"] += port.packets_sent
        snap["eth_bytes"] += port.bytes_sent
        snap["dma_ops"] += node.nic.dma.ops_submitted
        snap["dma_vectors"] += node.nic.dma.vectors_submitted
        snap["pcie"] += node.pcie.to_nic_count + node.pcie.to_host_count
        snap["nic_busy_us"] += node.nic.cores.busy_us
        snap["host_busy_us"] += (node.host_app_cores.busy_us
                                 + node.worker_cores.busy_us)
        snap["nic_log_appends"] += proto.runtime.log_appends
        snap["host_log_appended"] += node.log.appended
        for index in node.indexes.values():
            snap["cache_hits"] += index.hits
            snap["cache_misses"] += index.misses
            snap["cache_evictions"] += index.evictions
        for table in node.tables.values():
            probes = table.probe_stats
            snap["probes"] += probes.count
            snap["probe_len_sum"] += probes.mean * probes.count
    return snap


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(before: Counter, after: Counter, bench) -> Dict[str, float]:
    d = Counter(after)
    d.subtract(before)
    nodes = bench.cluster.nodes
    commits = d["stat.commits"]
    sim_us = d["sim_us"]
    aborts_per_commit = _ratio(d["stat.aborts"], commits)
    # a counter that does not exist on this row (RDMA on Xenic rows,
    # core and store on the baseline row) reads 0
    out = {m.name: 0.0 for m in PER_LAYER if m.source == "counter"}
    out["sim.events_total"] = after["events"]
    out["sim.pending_events_end"] = bench.sim.pending_events
    if not is_xenic(bench):
        wire_capacity = sum(n.rdma.params.bandwidth_gbps for n in nodes) \
            * _GBPS_TO_BYTES_PER_US * sim_us
        out.update({
            "hw.rdma_wire_bytes_per_txn": _ratio(d["rdma_bytes"], commits),
            "hw.rdma_retries": d["rdma_retries"],
            "hw.host_core_util": _ratio(
                d["host_busy_us"],
                sum(n.host_cores.cores for n in nodes) * sim_us),
            "hw.link_util": _ratio(d["rdma_bytes"], wire_capacity),
            "baselines.aborts_per_commit": aborts_per_commit,
        })
        return out
    wire_capacity = sum(n.nic.port.params.bandwidth_gbps for n in nodes) \
        * _GBPS_TO_BYTES_PER_US * sim_us
    executions = (d["stat.nic_executions"] + d["stat.shipped_executions"]
                  + d["stat.host_executions"])
    out.update({
        "hw.wire_msgs_per_txn": _ratio(d["wire_msgs"], commits),
        "hw.wire_bytes_per_txn": _ratio(d["wire_bytes"], commits),
        "hw.eth_payloads_per_packet": _ratio(d["eth_payloads"],
                                             d["eth_packets"]),
        "hw.dma_ops_per_txn": _ratio(d["dma_ops"], commits),
        "hw.dma_ops_per_vector": _ratio(d["dma_ops"], d["dma_vectors"]),
        "hw.pcie_crossings_per_txn": _ratio(d["pcie"], commits),
        "hw.nic_core_util": _ratio(
            d["nic_busy_us"], sum(n.nic.cores.cores for n in nodes) * sim_us),
        "hw.host_core_util": _ratio(
            d["host_busy_us"],
            sum(n.host_app_cores.cores + n.worker_cores.cores
                for n in nodes) * sim_us),
        "hw.link_util": _ratio(d["eth_bytes"], wire_capacity),
        "core.aborts_per_commit": aborts_per_commit,
        "core.lock_conflicts_per_txn": _ratio(d["stat.lock_conflicts"],
                                              commits),
        "core.validate_conflicts_per_txn": _ratio(
            d["stat.validate_conflicts"], commits),
        "core.requests_per_txn": _ratio(d["stat.requests_sent"], commits),
        "core.nic_exec_frac": _ratio(
            d["stat.nic_executions"] + d["stat.shipped_executions"],
            executions),
        "core.multihop_frac": _ratio(d["stat.multihop"], commits),
        "core.local_readonly_frac": _ratio(d["stat.local_readonly"], commits),
        "core.log_appends_per_txn": _ratio(d["nic_log_appends"], commits),
        "core.log_backpressure_per_ktxn": _ratio(
            1000.0 * d["stat.log_backpressure"], commits),
        "store.nic_cache_hit_rate": _ratio(
            d["cache_hits"], d["cache_hits"] + d["cache_misses"]),
        "store.nic_cache_evictions_per_txn": _ratio(d["cache_evictions"],
                                                    commits),
        "store.robinhood_probe_len_mean": _ratio(d["probe_len_sum"],
                                                 d["probes"]),
        "store.log_appended_per_txn": _ratio(d["host_log_appended"], commits),
    })
    return out
