"""The Observer: one object wiring a cluster into the observability layer.

``Observer.install(cluster)`` attaches to every instrumentation point the
models expose — core groups, DMA engines, the protocol's span hooks —
and registers occupancy gauges with the sampler.  The protocol's
coordinator phases and server-side handlers log their own ``phase`` and
``server`` spans, from the instants their callback chains computed, to
the sink they find on the protocol.  Every hook is reversible
(``uninstall``), reads simulated time only, and adds no simulation
events beyond the sampler's own timeouts; and no model site chooses its
form from whether a sink is attached, so installing an Observer never
changes simulated results, at any load.
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..sim.core import Simulator
from .events import EventLog, InstantEvent, SpanEvent
from .registry import MetricsRegistry, Sampler

__all__ = ["Observer"]


class Observer:
    """Unified metrics + span collection for one cluster run."""

    def __init__(self, sim: Simulator, sample_interval_us: float = 20.0,
                 max_events: int = 200_000):
        self.sim = sim
        self.registry = MetricsRegistry()
        self.log = EventLog(limit=max_events)
        self.sampler = Sampler(sim, self.registry, interval_us=sample_interval_us)
        self.cluster = None
        self._protocols: List[Any] = []
        self._core_groups: List[Any] = []
        self._dma_engines: List[Any] = []

    # ------------------------------------------------------------------
    # event emission (called from the instrumented models)
    # ------------------------------------------------------------------

    def span(self, name: str, cat: str, node: int, track: str, ts: float,
             dur: float, txn_id: Optional[int] = None,
             args: Optional[dict] = None) -> None:
        self.log.append(SpanEvent(name, cat, node, track, ts, dur,
                                  txn_id=txn_id, args=args))

    def instant(self, name: str, cat: str, node: int, track: str, ts: float,
                txn_id: Optional[int] = None,
                args: Optional[dict] = None) -> None:
        self.log.append(InstantEvent(name, cat, node, track, ts,
                                     txn_id=txn_id, args=args))

    def core_job(self, node: int, track: str, slot: Optional[int],
                 start: float, end: float) -> None:
        lane = "%s.c%d" % (track, slot) if slot is not None else track
        self.log.append(SpanEvent("job", "core", node, lane, start,
                                  end - start))

    def dma_vector(self, node: int, queue: int, start: float,
                   occupancy: float, n_ops: int) -> None:
        self.registry.histogram("n%d" % node, "dma_vector_size").observe(n_ops)
        self.log.append(SpanEvent("vector", "dma", node, "dma.q%d" % queue,
                                  start, occupancy, args={"ops": n_ops}))

    def txn_commit(self, node: int, txn) -> None:
        self.registry.histogram("cluster", "txn_latency_us").observe(
            max(txn.committed_at - txn.started_at, 1e-9))
        self.log.append(SpanEvent(
            txn.spec.label, "txn", node, "txn", txn.started_at,
            txn.committed_at - txn.started_at, txn_id=txn.txn_id,
            args={"attempts": txn.attempts}))

    def attrib_span(self, phase: str, node: int, start: float, end: float,
                    txn_id: Optional[int],
                    svc: Optional[float] = None) -> None:
        """A latency-attribution interval: time a transaction spent in one
        phase (wire wait, DMA, host compute, NIC core, backoff, ...).
        ``svc`` carries the known service portion of a queue+service span
        so the attributor can split queueing from service."""
        self.log.append(SpanEvent(
            phase, "attrib", node, "attrib", start, end - start,
            txn_id=txn_id, args={"svc": svc} if svc is not None else None))

    def txn_abort(self, node: int, txn) -> None:
        args = {"attempt": txn.attempts}
        reason = getattr(txn, "abort_reason", None)
        if reason is not None:
            args["reason"] = str(reason)
        self.log.append(InstantEvent("abort", "txn", node, "txn",
                                     self.sim.now, txn_id=txn.txn_id,
                                     args=args))

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def install(self, cluster) -> "Observer":
        """Attach to a Xenic or baseline cluster and start the sampler."""
        if self.cluster is not None:
            raise RuntimeError("observer already installed")
        self.cluster = cluster
        if hasattr(cluster.nodes[0], "nic"):
            self._install_xenic(cluster)
        else:
            self._install_baseline(cluster)
        self.sampler.start()
        return self

    def _gauge(self, component: str, name: str, fn, **labels) -> None:
        self.registry.gauge(component, name, fn, **labels)

    def _attach_cores(self, group, node_id: int, track: str,
                      component: str) -> None:
        group.attach_obs(self, node_id, track)
        self._core_groups.append(group)
        self._gauge(component, track + "_in_use", lambda p=group.pool: p.in_use)
        self._gauge(component, track + "_run_queue",
                    lambda p=group.pool: p.queue_len)

    def _install_xenic(self, cluster) -> None:
        self._gauge("cluster", "fabric_messages",
                    lambda f=cluster.fabric: f.messages_delivered)
        self._gauge("cluster", "fabric_bytes",
                    lambda f=cluster.fabric: f.bytes_delivered)
        for node in cluster.nodes:
            i = node.node_id
            comp = "n%d" % i
            self._attach_cores(node.nic.cores, i, "nic", comp)
            self._attach_cores(node.host_app_cores, i, "host", comp)
            self._attach_cores(node.worker_cores, i, "worker", comp)
            node.nic.dma.attach_obs(self, i)
            self._dma_engines.append(node.nic.dma)
            self._gauge(comp, "dma_busy_queues",
                        lambda d=node.nic.dma: d.busy_queues())
            self._gauge(comp, "dma_backlog_us",
                        lambda d=node.nic.dma: d.queue_backlog_us())
            self._gauge(comp, "eth_utilization",
                        lambda p=node.nic.port: p.utilization())
        for proto in cluster.protocols:
            i = proto.node.node_id
            proto.obs = self
            self._protocols.append(proto)
            self._gauge("n%d" % i, "nic_pending",
                        lambda p=proto.runtime.pending: len(p))

    def _install_baseline(self, cluster) -> None:
        for node in cluster.nodes:
            i = node.node_id
            comp = "n%d" % i
            self._attach_cores(node.host_cores, i, "host", comp)
            self._gauge(comp, "rdma_inflight",
                        lambda r=node.rdma: r.inflight)
            self._gauge(comp, "rdma_wire_utilization",
                        lambda r=node.rdma: r.utilization())
        for proto in cluster.protocols:
            proto.obs = self
            self._protocols.append(proto)

    # ------------------------------------------------------------------
    # teardown and snapshots
    # ------------------------------------------------------------------

    def uninstall(self) -> None:
        for proto in self._protocols:
            proto.obs = None
        for group in self._core_groups:
            group.detach_obs()
        for dma in self._dma_engines:
            dma.detach_obs()
        self.sampler.stop()
        self.cluster = None

    def snapshot_counters(self) -> None:
        """Copy every cumulative model counter into the registry (called
        by the exporters; reading at the end costs the hot path nothing)."""
        cluster = self.cluster
        reg = self.registry
        if cluster is None:
            return
        for node in cluster.nodes:
            comp = "n%d" % node.node_id
            if hasattr(node, "nic"):
                nic = node.nic
                reg.counter(comp, "nic_jobs").value = nic.cores.jobs_executed
                reg.counter(comp, "nic_busy_us").value = nic.cores.busy_us
                reg.counter(comp, "host_busy_us").value = node.host_app_cores.busy_us
                reg.counter(comp, "worker_busy_us").value = node.worker_cores.busy_us
                reg.counter(comp, "dma_ops").value = nic.dma.ops_submitted
                reg.counter(comp, "dma_vectors").value = nic.dma.vectors_submitted
                reg.counter(comp, "dma_mean_vector").value = nic.dma.vector_sizes.mean
                reg.counter(comp, "eth_messages").value = nic.port.messages_sent
                reg.counter(comp, "eth_bytes").value = nic.port.bytes_sent
                reg.counter(comp, "pcie_to_nic").value = node.pcie.to_nic_count
                reg.counter(comp, "pcie_to_host").value = node.pcie.to_host_count
                for shard in sorted(node.tables):
                    stats = node.tables[shard].probe_stats
                    reg.counter(comp, "probe_count", shard=shard).value = stats.count
                    reg.counter(comp, "probe_mean", shard=shard).value = stats.mean
            else:
                rdma = node.rdma
                reg.counter(comp, "host_busy_us").value = node.host_cores.busy_us
                for verb in sorted(rdma.ops):
                    reg.counter(comp, "rdma_ops", verb=verb).value = rdma.ops[verb]
                reg.counter(comp, "rdma_retries").value = rdma.retries
                reg.counter(comp, "rdma_wire_bytes").value = rdma.wire_bytes
        if hasattr(cluster, "fabric"):
            reg.counter("cluster", "fabric_messages_total").value = \
                cluster.fabric.messages_delivered
            reg.counter("cluster", "fabric_bytes_total").value = \
                cluster.fabric.bytes_delivered
        for proto in self._protocols:
            comp = "n%d" % proto.node.node_id
            runtime = getattr(proto, "runtime", None)
            if runtime is not None:
                reg.counter(comp, "nic_dma_reads").value = runtime.dma_reads
                reg.counter(comp, "nic_dma_writes").value = runtime.dma_writes
                reg.counter(comp, "log_appends").value = runtime.log_appends
                reg.counter(comp, "log_flushes").value = runtime.log_flushes
            for key in sorted(proto.stats.as_dict()):
                reg.counter(comp, "proto_" + key).value = proto.stats.get(key)
