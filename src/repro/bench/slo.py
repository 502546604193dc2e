"""Open-loop SLO harness: latency vs *offered* load (docs/OBSERVABILITY.md).

The closed-loop runner (:mod:`repro.bench.runner`) measures the paper's
throughput/latency curves: N contexts per node issue transactions
back-to-back, so the system is never offered more work than it completes.
Real deployments are open-loop — clients arrive on their own schedule and
queue when the system falls behind — which is where tail latency actually
lives.  This module drives the same clusters with Poisson or bursty
arrival processes, admission-limits dispatch to ``max_inflight``
in-flight transactions per node, and reports *sojourn* time (client
queueing included) at p50/p99/p999 per offered-load point, plus the SLO
knee: the highest offered load that still meets a p99 budget while
actually sustaining the offered rate.

Sweeps are described by a picklable :class:`SloSpec`; independent load
points fan across a process pool through
:func:`repro.bench.parallel.fan_out` (``--jobs`` on the CLI), with
byte-identical serial/parallel results.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim import LatencyRecorder
from ..sim.rng import RngStream
from .parallel import fan_out
from .runner import Bench, workload_by_name

__all__ = ["SloSpec", "SloPoint", "OpenLoopBench", "run_slo_point",
           "run_slo_points", "detect_knee", "slo_report",
           "format_slo_report"]

ARRIVALS = ("poisson", "bursty")


def offered_loads(values) -> Tuple[float, ...]:
    """``values`` as a sweep's offered loads: one or more, each > 0."""
    loads = tuple(float(x) for x in values)
    if not loads or min(loads) <= 0:
        raise ValueError("offered loads must be one or more values > 0, "
                         "got %r" % (loads,))
    return loads


@dataclass(frozen=True)
class SloSpec:
    """One SLO sweep: everything needed to run each offered-load point,
    as plain picklable data."""

    system: str
    workload: str  # key in repro.workloads.WORKLOADS (via workload_by_name)
    loads_per_node_s: Tuple[float, ...]  # offered load per node, txn/s
    arrival: str = "poisson"  # "poisson" | "bursty"
    burst_factor: float = 4.0  # burst-phase rate multiplier
    burst_fraction: float = 0.1  # fraction of each cycle spent bursting
    burst_cycle_us: float = 200.0  # on/off cycle length
    max_inflight: int = 64  # admission limit per node
    n_nodes: int = 3
    warmup_us: float = 150.0
    window_us: float = 600.0
    seed: int = 7
    # (fault spec text or FaultSpec, root seed), or None: every point's
    # Bench runs under this plan.
    faults: Optional[tuple] = None
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "loads_per_node_s",
                           offered_loads(self.loads_per_node_s))
        if self.arrival not in ARRIVALS:
            raise ValueError("arrival must be one of %s" % (ARRIVALS,))
        if self.burst_factor * self.burst_fraction >= 1.0:
            raise ValueError("burst_factor * burst_fraction must be < 1 "
                             "(the off-phase rate would go non-positive)")
        if not self.label:
            object.__setattr__(self, "label", self.system)


@dataclass
class SloPoint:
    """One measured point of a latency-vs-offered-load curve."""

    system: str
    workload: str
    arrival: str
    offered_per_node_s: float  # target arrival rate per node
    arrived_per_node_s: float  # measured arrivals in the window
    achieved_per_node_s: float  # counted completions in the window
    p50_us: float  # sojourn: arrival -> commit, queueing included
    p99_us: float
    p999_us: float
    mean_us: float
    queue_mean_us: float  # admission-queue wait component
    queue_p99_us: float
    commits: int
    aborts: int
    backlog: int  # queued + in-flight txns left at window close
    window_us: float
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def goodput_frac(self) -> float:
        """Fraction of the offered load actually completed.  Compared
        against the *measured* arrival rate, not the nominal target, so
        Poisson sampling noise in short windows doesn't read as load
        shedding."""
        return self.achieved_per_node_s / (self.arrived_per_node_s
                                           or self.offered_per_node_s)


class OpenLoopBench:
    """A cluster under open-loop load.

    A :class:`~repro.bench.runner.Bench` run (with ``spec.faults`` and
    ``obs`` passed through) whose load driver is per-node arrival
    generators feeding a FIFO admission queue drained by
    ``max_inflight`` dispatch workers; :meth:`Bench.window` does the
    counting.  The queue wait of every counted transaction is kept in
    ``queue_waits`` (txn_id -> µs) so the latency attributor can report
    it as the ``client_queue`` phase.
    """

    def __init__(self, spec: SloSpec, load_per_node_s: float, obs=None):
        workload = workload_by_name(spec.workload, spec.n_nodes,
                                    seed=spec.seed)
        self.spec = spec
        self.load_per_node_s = float(load_per_node_s)
        self.rate_us = self.load_per_node_s / 1e6  # arrivals per µs per node
        self.bench = Bench(spec.system, workload, n_nodes=spec.n_nodes,
                           faults=spec.faults, obs=obs)
        self.sim = self.bench.sim
        self.cluster = self.bench.cluster
        self.observer = self.bench.observer
        self._queues = [deque() for _ in range(spec.n_nodes)]
        self._idle_workers = [[] for _ in range(spec.n_nodes)]
        self._inflight = [0] * spec.n_nodes
        self._started = False
        self._arrivals = 0
        self._queue_wait = LatencyRecorder()
        self.abort_reasons: Dict[str, int] = {}
        self.queue_waits: Dict[int, float] = {}

    # -- arrival processes -------------------------------------------------

    def _gap_us(self, rng: RngStream) -> float:
        spec = self.spec
        if spec.arrival == "poisson":
            return rng.expovariate(self.rate_us)
        # bursty: mean-preserving on/off modulated Poisson.  A fraction f
        # of each cycle runs at boost*r; the off phase compensates at
        # r*(1 - f*boost)/(1 - f), so the long-run rate is still r.
        f, boost, cycle = (spec.burst_fraction, spec.burst_factor,
                           spec.burst_cycle_us)
        phase = self.sim.now % cycle
        if phase < f * cycle:
            rate = self.rate_us * boost
        else:
            rate = self.rate_us * (1.0 - f * boost) / (1.0 - f)
        return rng.expovariate(rate)

    def _arrival_proc(self, node_id: int):
        gen = self.bench.workload.generator_for(node_id, "open")
        rng = RngStream(self.spec.seed, "slo-arrivals/%d" % node_id)
        queue = self._queues[node_id]
        idle = self._idle_workers[node_id]
        while True:
            yield self.sim.timeout(self._gap_us(rng))
            if self.bench.open_window is not None:
                self._arrivals += 1
            queue.append((self.sim.now, gen.next()))
            if idle:
                idle.pop().succeed()

    def _worker(self, node_id: int):
        proto = self.cluster.protocols[node_id]
        queue = self._queues[node_id]
        idle = self._idle_workers[node_id]
        while True:
            while not queue:
                ev = self.sim.event(name="slo-idle")
                idle.append(ev)
                yield ev
            arrived_at, spec = queue.popleft()
            wait = self.sim.now - arrived_at
            self._inflight[node_id] += 1
            txn = yield from proto.run_transaction(spec)
            self._inflight[node_id] -= 1
            # the sojourn: arrival to commit, queueing included
            if self.bench.record(spec, self.sim.now - arrived_at):
                self._queue_wait.record(wait)
                self.queue_waits[txn.txn_id] = wait

    def _start(self) -> None:
        if self._started:
            return
        self._started = True
        for node_id in range(self.spec.n_nodes):
            self.sim.spawn(self._arrival_proc(node_id),
                           name="slo-arrivals-%d" % node_id)
            for k in range(self.spec.max_inflight):
                self.sim.spawn(self._worker(node_id),
                               name="slo-worker-%d-%d" % (node_id, k))

    # -- measurement -------------------------------------------------------

    def measure(self, warmup_us: Optional[float] = None,
                window_us: Optional[float] = None) -> SloPoint:
        spec = self.spec
        if warmup_us is None:
            warmup_us = spec.warmup_us
        if window_us is None:
            window_us = spec.window_us
        self._start()
        # counted only while the window is open
        self._arrivals = 0
        self._queue_wait = LatencyRecorder()
        self.queue_waits = {}
        win = self.bench.window(warmup_us, window_us)
        self.abort_reasons = win.abort_reasons
        elapsed = win.elapsed_us
        per_node_s = 1e6 / (elapsed * spec.n_nodes) if elapsed else 0.0
        point = SloPoint(
            system=spec.system,
            workload=self.bench.workload.name,
            arrival=spec.arrival,
            offered_per_node_s=self.load_per_node_s,
            arrived_per_node_s=self._arrivals * per_node_s,
            achieved_per_node_s=win.counted * per_node_s,
            p50_us=win.latency.median,  # the sojourn, queueing included
            p99_us=win.latency.p99,
            p999_us=win.latency.p999,
            mean_us=win.latency.mean,
            queue_mean_us=self._queue_wait.mean,
            queue_p99_us=self._queue_wait.percentile(99),
            commits=win.commits,
            aborts=win.aborts,
            backlog=sum(len(q) for q in self._queues) + sum(self._inflight),
            window_us=elapsed,
            extra=win.utilization,
        )
        if win.aborted_at.count:
            point.extra["abort_p50_us"] = win.aborted_at.median
            point.extra["abort_p99_us"] = win.aborted_at.p99
        return point


def run_slo_point(spec: SloSpec, load_per_node_s: float) -> SloPoint:
    """Run one offered-load point on a fresh cluster."""
    return OpenLoopBench(spec, load_per_node_s).measure()


def run_slo_points(spec: SloSpec, jobs: int = 1) -> List[SloPoint]:
    """Run every load point of the sweep, across up to ``jobs`` worker
    processes.  Points are independent clusters, so results are
    identical for any ``jobs``."""
    return fan_out(partial(run_slo_point, spec), spec.loads_per_node_s, jobs)


# ---------------------------------------------------------------------------
# knee detection and reports
# ---------------------------------------------------------------------------


def detect_knee(points: Sequence[SloPoint], slo_p99_us: float,
                min_goodput_frac: float = 0.9) -> Optional[SloPoint]:
    """The SLO knee: the highest offered load whose p99 sojourn meets the
    budget *and* whose completions keep up with arrivals.  The second
    condition matters because an overloaded open-loop system can report a
    flattering p99 over the few transactions it admitted while the queue
    grows without bound.  Returns ``None`` when even the lowest offered
    load violates the SLO."""
    knee = None
    for p in sorted(points, key=lambda p: p.offered_per_node_s):
        if p.p99_us <= slo_p99_us and p.goodput_frac >= min_goodput_frac:
            knee = p
    return knee


def slo_report(spec: SloSpec, points: Sequence[SloPoint],
               slo_p99_us: float,
               min_goodput_frac: float = 0.9) -> dict:
    """JSON-ready sweep report: the curve plus the detected knee."""
    knee = detect_knee(points, slo_p99_us, min_goodput_frac)
    return {
        "system": spec.system,
        "workload": spec.workload,
        "arrival": spec.arrival,
        "max_inflight": spec.max_inflight,
        "n_nodes": spec.n_nodes,
        "window_us": spec.window_us,
        "slo_p99_us": slo_p99_us,
        "min_goodput_frac": min_goodput_frac,
        "knee_offered_per_node_s": (knee.offered_per_node_s
                                    if knee is not None else None),
        "knee_p99_us": knee.p99_us if knee is not None else None,
        "points": [
            {
                "offered_per_node_s": p.offered_per_node_s,
                "arrived_per_node_s": p.arrived_per_node_s,
                "achieved_per_node_s": p.achieved_per_node_s,
                "goodput_frac": p.goodput_frac,
                "p50_us": p.p50_us,
                "p99_us": p.p99_us,
                "p999_us": p.p999_us,
                "mean_us": p.mean_us,
                "queue_mean_us": p.queue_mean_us,
                "queue_p99_us": p.queue_p99_us,
                "commits": p.commits,
                "aborts": p.aborts,
                "backlog": p.backlog,
                "meets_slo": (p.p99_us <= slo_p99_us
                              and p.goodput_frac >= min_goodput_frac),
            }
            for p in sorted(points, key=lambda p: p.offered_per_node_s)
        ],
    }


def format_slo_report(report: dict) -> str:
    """Render a :func:`slo_report` dict as an aligned text table."""
    from .report import format_table

    rows = []
    for p in report["points"]:
        rows.append([
            "%.0f" % p["offered_per_node_s"],
            "%.0f" % p["achieved_per_node_s"],
            "%.2f" % p["goodput_frac"],
            "%.1f" % p["p50_us"],
            "%.1f" % p["p99_us"],
            "%.1f" % p["p999_us"],
            "%.1f" % p["queue_p99_us"],
            p["aborts"],
            "yes" if p["meets_slo"] else "NO",
        ])
    head = ("SLO sweep: %s/%s, %s arrivals, max_inflight=%d, "
            "p99 budget %.0fus"
            % (report["system"], report["workload"], report["arrival"],
               report["max_inflight"], report["slo_p99_us"]))
    table = format_table(
        ["offered/s/node", "achieved", "goodput", "p50 us", "p99 us",
         "p999 us", "queue p99", "aborts", "SLO"], rows)
    knee = report["knee_offered_per_node_s"]
    if knee is None:
        tail = ("SLO knee: none — every offered load violates the budget "
                "or sheds load")
    else:
        tail = ("SLO knee: %.0f txn/s/node (p99 %.1fus within %.0fus "
                "budget)" % (knee, report["knee_p99_us"],
                             report["slo_p99_us"]))
    return "\n".join([head, table, tail])
