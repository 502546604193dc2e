"""Experiment runner: build a cluster, drive closed-loop load, measure.

The measurement methodology mirrors the paper's: closed-loop coordinator
contexts (the paper's coroutines) run transactions back-to-back on every
node; sweeping the context count traces the throughput/median-latency
curves of Figure 8.  Throughput is committed transactions (optionally
filtered by label, e.g. TPC-C counts new-orders only) per simulated second
per server; latency is measured from first attempt to commit report,
retries included.

One cluster is reused across the points of a sweep (ascending
concurrency), so table-loading cost is paid once per curve.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..baselines import SYSTEMS, BaselineCluster
from ..core import XenicCluster, XenicConfig
from ..obs import Observer
from ..sim import LatencyRecorder, Simulator, collector_quiet
from ..workloads import WORKLOADS
from ..workloads.base import Workload

__all__ = ["RunResult", "Bench", "run_sweep", "to_jsonable",
           "write_results_json", "workload_by_name"]

XENIC = "xenic"
ALL_SYSTEMS = (XENIC, "drtmh", "drtmh_nc", "fasst", "drtmr")


# ---------------------------------------------------------------------------
# machine-readable results (--json)
# ---------------------------------------------------------------------------


def to_jsonable(obj: Any) -> Any:
    """Recursively convert experiment results (dataclasses, dicts, lists,
    scalars) into JSON-serializable structures; NaN/inf become null."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return None if (math.isnan(obj) or math.isinf(obj)) else obj
    return str(obj)


def write_results_json(path: str, experiment: str, results: Any) -> str:
    """Write one experiment's results as ``{"experiment", "results"}``."""
    payload = {"experiment": experiment, "results": to_jsonable(results)}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def workload_by_name(name: str, n_nodes: int, seed: int = 1) -> Workload:
    """Build a reduced-scale workload by CLI name (trace/metrics
    subcommands; scaled like the test configurations, not the full
    benchmark keyspaces)."""
    if name not in WORKLOADS:
        raise ValueError("unknown workload %r (have: %s)"
                         % (name, ", ".join(sorted(WORKLOADS))))
    cls = WORKLOADS[name]
    if name == "smallbank":
        return cls(n_nodes, accounts_per_server=1500,
                   hot_keys_fraction=0.25, seed=seed)
    if name == "retwis":
        return cls(n_nodes, keys_per_server=1500, seed=seed)
    # tpcc / tpcc_no
    return cls(n_nodes, warehouses_per_server=2, stock_per_warehouse=100,
               customers_per_warehouse=10, seed=seed)


@dataclass
class RunResult:
    system: str
    workload: str
    concurrency: int
    throughput_per_server: float  # counted txns/s per server
    median_latency_us: float
    p99_latency_us: float
    mean_latency_us: float
    commits: int
    aborts: int
    window_us: float
    extra: Dict[str, float] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return (
            "%s/%s c=%d: %.2fM txn/s/server, median %.1fus, p99 %.1fus"
            % (self.system, self.workload, self.concurrency,
               self.throughput_per_server / 1e6, self.median_latency_us,
               self.p99_latency_us)
        )


class Bench:
    """A (system, workload) pair under closed-loop load.

    Construction and :meth:`measure` are each one collector-quiet scope
    (``repro.sim.collector``): the cluster funnel and the event loop are
    quiet on their own, and the outer scope keeps the thresholds raised
    across the seams between them.

    A run is reproducible from these arguments alone.  ``faults`` is
    ``(spec text or FaultSpec, root seed)``: the plan is installed after
    the cluster starts, before the Observer.  ``obs`` is ``True`` or an
    :class:`~repro.obs.Observer` to install."""

    def __init__(
        self,
        system: str,
        workload: Workload,
        n_nodes: int = 6,
        xenic_config: Optional[XenicConfig] = None,
        baseline_host_threads: Optional[int] = None,
        hardware=None,
        seed: int = 7,
        faults: Optional[tuple] = None,
        obs=None,
        obs_interval_us: float = 20.0,
    ):
        with collector_quiet:
            self.system = system
            self.workload = workload
            self.n_nodes = n_nodes
            self.sim = Simulator()
            self.seed = seed
            if system.startswith(XENIC):
                config = xenic_config
                if config is None:
                    config = XenicConfig(
                        host_app_threads=getattr(
                            workload, "xenic_app_threads", 2),
                        host_worker_threads=getattr(
                            workload, "xenic_worker_threads", 3),
                    )
                if hardware is not None:
                    import dataclasses

                    config = dataclasses.replace(config, hardware=hardware)
                self.cluster = XenicCluster(
                    self.sim, n_nodes, config=config,
                    keys_per_shard=workload.keys_per_shard(),
                    value_size=workload.value_size,
                    partition=workload.partition,
                )
            elif system in SYSTEMS:
                if baseline_host_threads is None:
                    baseline_host_threads = getattr(
                        workload, "baseline_host_threads", 16)
                kw = {}
                if hardware is not None:
                    kw["hardware"] = hardware
                self.cluster = BaselineCluster(
                    self.sim, n_nodes, SYSTEMS[system],
                    host_threads=baseline_host_threads,
                    keys_per_shard=workload.keys_per_shard(),
                    value_size=workload.value_size,
                    partition=workload.partition,
                    **kw,
                )
            else:
                raise ValueError("unknown system %r" % system)
            workload.load(self.cluster)
            if system.startswith(XENIC):
                # measure warm-cache steady state (the paper's long-running
                # systems have their hot sets resident in NIC DRAM)
                self.cluster.prewarm_nic_caches()
            self.cluster.start()
            self.fault_plan = None
            if faults is not None:
                from ..sim.faults import FaultPlan, FaultSpec
                from ..sim.rng import RngStream

                spec, fault_seed = faults
                if not isinstance(spec, FaultSpec):
                    spec = FaultSpec.parse(spec)
                self.fault_plan = FaultPlan(
                    spec, RngStream(fault_seed, "faults"),
                ).install(self.cluster)
            self.observer: Optional[Observer] = None
            if obs:
                self.observer = (
                    obs if isinstance(obs, Observer)
                    else Observer(self.sim,
                                  sample_interval_us=obs_interval_us))
                self.observer.install(self.cluster)
            self._contexts = 0
            self._recorder: Optional[LatencyRecorder] = None
            self._counting = False
            self._count = 0
            self._aborts_base = 0
            self.counted_label = getattr(workload, "counted_label", None)
            # Abort accounting: every abort during the measurement window
            # records how deep into the transaction it struck, plus a
            # per-reason counter (lock conflict, validation, ...).
            self._abort_recorder: Optional[LatencyRecorder] = None
            self._abort_reasons: Dict[str, int] = {}
            for proto in self.cluster.protocols:
                proto.on_abort = self._note_abort

    def _note_abort(self, txn) -> None:
        if not self._counting or self._abort_recorder is None:
            return
        self._abort_recorder.record(self.sim.now - txn.started_at)
        reason = getattr(txn, "abort_reason", None) or "unknown"
        self._abort_reasons[reason] = self._abort_reasons.get(reason, 0) + 1

    # -- load generation ------------------------------------------------------------

    def _context(self, node_id: int, stream_id: int):
        gen = self.workload.generator_for(node_id, "ctx%d" % stream_id)
        proto = self.cluster.protocols[node_id]
        while True:
            spec = gen.next()
            start = self.sim.now
            txn = yield from proto.run_transaction(spec)
            if spec.post_commit is not None:
                spec.post_commit()
            latency = self.sim.now - start
            if self._counting and (
                self.counted_label is None or spec.label == self.counted_label
            ):
                self._count += 1
                if self._recorder is not None:
                    self._recorder.record(latency)

    def ensure_contexts(self, concurrency_per_node: int) -> None:
        """Spawn additional contexts up to the requested count per node."""
        while self._contexts < concurrency_per_node:
            i = self._contexts
            for node_id in range(self.n_nodes):
                self.sim.spawn(
                    self._context(node_id, i),
                    name="ctx-%d-%d" % (node_id, i),
                )
            self._contexts += 1

    # -- measurement ------------------------------------------------------------

    def measure(
        self,
        concurrency_per_node: int,
        warmup_us: float = 150.0,
        window_us: float = 500.0,
    ) -> RunResult:
        with collector_quiet:
            if concurrency_per_node < self._contexts:
                raise ValueError(
                    "sweeps must use ascending concurrency (have %d, asked %d)"
                    % (self._contexts, concurrency_per_node)
                )
            self.ensure_contexts(concurrency_per_node)
            self.sim.run(until=self.sim.now + warmup_us)
            self._recorder = LatencyRecorder()
            self._abort_recorder = LatencyRecorder()
            self._abort_reasons = {}
            self._count = 0
            self._counting = True
            aborts0 = self._total_aborts()
            commits0 = self._total_commits()
            events0 = self.sim.events_scheduled
            start = self.sim.now
            self.sim.run(until=start + window_us)
            self._counting = False
            elapsed = self.sim.now - start
            throughput = (self._count / elapsed * 1e6 / self.n_nodes
                          if elapsed else 0.0)
            rec = self._recorder
            result = RunResult(
                system=self.system,
                workload=self.workload.name,
                concurrency=concurrency_per_node,
                throughput_per_server=throughput,
                median_latency_us=rec.median,
                p99_latency_us=rec.p99,
                mean_latency_us=rec.mean,
                commits=self._total_commits() - commits0,
                aborts=self._total_aborts() - aborts0,
                window_us=elapsed,
                extra=self._utilization_snapshot(),
            )
            # Attached as plain instance attributes, not dataclass fields:
            # to_jsonable() serializes fields only, so pinned result digests
            # (tests/test_golden_digest.py) are unaffected.
            result.abort_latency = self._abort_recorder.summary()
            result.abort_reasons = dict(self._abort_reasons)
            # Scheduler work attribution for this window: queue entries
            # pushed during the measurement window and the same per committed
            # txn — the honest cost metric for delay fusion, which removes
            # events without moving any simulated timestamp.
            result.events_scheduled = self.sim.events_scheduled - events0
            result.events_per_txn = (
                result.events_scheduled / result.commits
                if result.commits else 0.0
            )
            return result

    def _total_commits(self) -> int:
        return sum(p.stats.get("commits") for p in self.cluster.protocols)

    def _total_aborts(self) -> int:
        return sum(p.stats.get("aborts") for p in self.cluster.protocols)

    def _utilization_snapshot(self) -> Dict[str, float]:
        extra: Dict[str, float] = {}
        if self.system.startswith(XENIC):
            nodes = self.cluster.nodes
            extra["nic_core_util"] = sum(
                n.nic.cores.utilization() for n in nodes) / len(nodes)
            extra["host_app_util"] = sum(
                n.host_app_cores.utilization() for n in nodes) / len(nodes)
            extra["worker_util"] = sum(
                n.worker_cores.utilization() for n in nodes) / len(nodes)
            extra["eth_util"] = sum(
                n.nic.port.utilization() for n in nodes) / len(nodes)
        else:
            nodes = self.cluster.nodes
            extra["host_util"] = sum(
                n.host_cores.utilization() for n in nodes) / len(nodes)
            extra["wire_util"] = sum(
                n.rdma.utilization() for n in nodes) / len(nodes)
        return extra


def run_sweep(
    system: str,
    workload_factory,
    concurrencies: List[int],
    n_nodes: int = 6,
    warmup_us: float = 150.0,
    window_us: float = 500.0,
    xenic_config: Optional[XenicConfig] = None,
    baseline_host_threads: Optional[int] = None,
    hardware=None,
) -> List[RunResult]:
    """Trace one throughput/latency curve (one system, one workload)."""
    bench = Bench(system, workload_factory(), n_nodes=n_nodes,
                  xenic_config=xenic_config,
                  baseline_host_threads=baseline_host_threads,
                  hardware=hardware)
    results = []
    for c in sorted(concurrencies):
        results.append(bench.measure(c, warmup_us=warmup_us,
                                     window_us=window_us))
    return results
