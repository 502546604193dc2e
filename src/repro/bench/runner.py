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

__all__ = ["RunResult", "Window", "Bench", "run_sweep", "to_jsonable",
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


@dataclass
class Window:
    """What one measurement window (:meth:`Bench.window`) counted."""

    # the counted completions: those that carry the counted label
    latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    counted: int = 0
    # how deep into its transaction each abort struck, and why it aborted
    aborted_at: LatencyRecorder = field(default_factory=LatencyRecorder)
    abort_reasons: Dict[str, int] = field(default_factory=dict)
    elapsed_us: float = 0.0
    commits: int = 0  # protocol-reported, counted label or not
    aborts: int = 0
    events: int = 0  # queue entries pushed during the window
    utilization: Dict[str, float] = field(default_factory=dict)


class Bench:
    """A (system, workload) pair: the one place a run is built.  Its
    closed-loop contexts (:meth:`measure`) are one load driver of several
    (``bench.slo``, ``bench.chaos``); all count through :meth:`window`.

    Construction and :meth:`measure` are each one collector-quiet scope
    (``repro.sim.collector``): the cluster funnel and the event loop are
    quiet on their own, and the outer scope keeps the thresholds raised
    across the seams between them.

    A run is reproducible from these arguments and the workload's seed.
    ``faults`` is ``(spec text or FaultSpec, root seed)``: the plan is
    installed after the cluster starts, before the Observer.  ``obs`` is
    ``True`` or an :class:`~repro.obs.Observer` to install."""

    def __init__(
        self,
        system: str,
        workload: Workload,
        n_nodes: int = 6,
        xenic_config: Optional[XenicConfig] = None,
        baseline_host_threads: Optional[int] = None,
        hardware=None,
        faults: Optional[tuple] = None,
        obs=None,
        obs_interval_us: float = 20.0,
    ):
        with collector_quiet:
            self.system = system
            self.workload = workload
            self.n_nodes = n_nodes
            self.sim = Simulator()
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
            if system.startswith(XENIC) and workload.prewarm:
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
            self.counted_label = getattr(workload, "counted_label", None)
            # the window being counted, or None between windows
            self.open_window: Optional[Window] = None
            for proto in self.cluster.protocols:
                proto.on_abort = self._note_abort

    def _note_abort(self, txn) -> None:
        win = self.open_window
        if win is None:
            return
        win.aborted_at.record(self.sim.now - txn.started_at)
        reason = getattr(txn, "abort_reason", None) or "unknown"
        win.abort_reasons[reason] = win.abort_reasons.get(reason, 0) + 1

    def record(self, spec, latency_us: float) -> bool:
        """Count one finished transaction toward the open window if it
        carries the counted label; returns whether it counted."""
        win = self.open_window
        if win is None or (self.counted_label is not None
                           and spec.label != self.counted_label):
            return False
        win.counted += 1
        win.latency.record(latency_us)
        return True

    # -- load generation ------------------------------------------------------------

    def _context(self, node_id: int, stream_id: int):
        gen = self.workload.generator_for(node_id, "ctx%d" % stream_id)
        proto = self.cluster.protocols[node_id]
        while True:
            spec = gen.next()
            start = self.sim.now
            yield from proto.run_transaction(spec)
            self.record(spec, self.sim.now - start)

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

    def window(self, warmup_us: float, window_us: float) -> Window:
        """Run ``warmup_us`` uncounted, then count ``window_us``: the
        measurement window every load driver shares.  Completions count
        through :meth:`record`, aborts through the protocols'
        ``on_abort``."""
        with collector_quiet:
            self.sim.run(until=self.sim.now + warmup_us)
            win = Window()
            commits0 = self.total_commits()
            aborts0 = self.total_aborts()
            events0 = self.sim.events_scheduled
            start = self.sim.now
            self.open_window = win
            self.sim.run(until=start + window_us)
            self.open_window = None
            win.elapsed_us = self.sim.now - start
            win.commits = self.total_commits() - commits0
            win.aborts = self.total_aborts() - aborts0
            win.events = self.sim.events_scheduled - events0
            win.utilization = self._utilization_snapshot()
            return win

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
            win = self.window(warmup_us, window_us)
            elapsed = win.elapsed_us
            throughput = (win.counted / elapsed * 1e6 / self.n_nodes
                          if elapsed else 0.0)
            result = RunResult(
                system=self.system,
                workload=self.workload.name,
                concurrency=concurrency_per_node,
                throughput_per_server=throughput,
                median_latency_us=win.latency.median,
                p99_latency_us=win.latency.p99,
                mean_latency_us=win.latency.mean,
                commits=win.commits,
                aborts=win.aborts,
                window_us=elapsed,
                extra=win.utilization,
            )
            # Attached as plain instance attributes, not dataclass fields:
            # to_jsonable() serializes fields only, so pinned result digests
            # (tests/test_golden_digest.py) are unaffected.
            result.abort_latency = win.aborted_at.summary()
            result.abort_reasons = win.abort_reasons
            # Scheduler work attribution for this window: queue entries
            # pushed during the measurement window and the same per committed
            # txn — the honest cost metric for delay fusion, which removes
            # events without moving any simulated timestamp.
            result.events_scheduled = win.events
            result.events_per_txn = (
                win.events / win.commits if win.commits else 0.0
            )
            return result

    def total_commits(self) -> int:
        return sum(p.stats.get("commits") for p in self.cluster.protocols)

    def total_aborts(self) -> int:
        return sum(p.stats.get("aborts") for p in self.cluster.protocols)

    def _utilization_snapshot(self) -> Dict[str, float]:
        nodes = self.cluster.nodes
        if self.system.startswith(XENIC):
            parts = (("nic_core_util", lambda n: n.nic.cores),
                     ("host_app_util", lambda n: n.host_app_cores),
                     ("worker_util", lambda n: n.worker_cores),
                     ("eth_util", lambda n: n.nic.port))
        else:
            parts = (("host_util", lambda n: n.host_cores),
                     ("wire_util", lambda n: n.rdma))
        return {name: sum(part(n).utilization() for n in nodes) / len(nodes)
                for name, part in parts}


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
