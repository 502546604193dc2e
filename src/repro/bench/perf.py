"""Wall-clock performance harness for the simulator *itself*.

Unlike everything else under ``repro.bench`` — which measures the modeled
systems in simulated time — this module measures how fast the simulation
runs in real time, so event-loop regressions are caught the same way
modeling regressions are.

Two kinds of benches:

* **event-loop micro benches** (``timeout_churn``, ``resource_churn``,
  ``anyof_cancel``, ``queue_churn``, ``link_stream``): tight loops over
  one engine primitive, reported as events/second dispatched
  (``queue_churn`` is the scheduler-sensitive one: near-horizon churn
  against a large standing population of far timers);
* **model-layer micro benches** (``workload_specs``, ``store_probe``,
  ``commit_path``): the layers *above* the engine — workload spec
  generation, Robinhood probe loops, and the no-conflict commit path —
  so regressions in model code are attributed to the right layer;
* **end-to-end benches** (``fig8d_point``, ``retwis_point``,
  ``chaos_seed``): reduced figure sweep points and one chaos seed,
  exercising the full protocol stack.

Results append to a *trajectory* file (``BENCH_simperf.json`` by
default): one entry per recorded run, newest last, so the committed
baseline carries history, not just the latest number.  ``--check``
compares against the last recorded entry at the same scale and fails on
a worse-than-``max_regression``x slowdown (events/second ratio).

Every bench also counts the automatic garbage collections that fired
inside its timed region (``gc_collections``, and their host seconds
``gc_s``).  The end-to-end benches run entirely inside collector-quiet
library scopes (``repro.sim.collector``), so for them the count is an
exact zero and ``--check`` fails on anything else.

Usage::

    python -m repro perf                 # run + compare, informational
    python -m repro perf --check         # exit 1 on >2x regression, or
                                         # on a collection in a timed region
    python -m repro perf --update        # append an entry to the file
    PYTHONPATH=src python benchmarks/bench_wallclock.py   # standalone
"""

from __future__ import annotations

import gc
import json
import os
import platform
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..sim.compiled import compiled_available, selected_compiled
from ..sim.core import AnyOf, Simulator, Timeout
from ..sim.equeue import selected_queue_kind
from ..sim.fusion import selected_fusion
from ..sim.link import SerialLink
from ..sim.resources import Resource

__all__ = ["run_perf", "compare_entries", "collection_failures",
           "load_trajectory", "append_entry", "baseline_entry",
           "format_results", "measure_scaling", "BENCH_FILE", "SCHEMA"]

BENCH_FILE = "BENCH_simperf.json"
SCHEMA = 1


# ---------------------------------------------------------------------------
# the benches — each returns (timed region, events_dispatched[, txns])
# ---------------------------------------------------------------------------


class _Timed:
    """A bench's timed region: wall seconds plus the garbage collections
    that fired inside it (the object is its own ``gc.callbacks`` entry).
    Entering it again adds a second region to the same totals."""

    def __init__(self):
        self.wall_s = 0.0
        self.gc_collections = 0
        self.gc_s = 0.0
        self._t0 = self._gc_t0 = 0.0

    def __enter__(self):
        # Settle the collector first: a collection deferred by an
        # earlier quiet scope (an untimed cluster build) would otherwise
        # fire on this region's first allocation.
        gc.collect()
        gc.callbacks.append(self)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        # Nothing here may allocate a container before the callback is
        # gone: leaving a quiet scope restores the thresholds, and the
        # collection it deferred belongs to the caller, not the region.
        self.wall_s += time.perf_counter() - self._t0
        gc.callbacks.remove(self)
        return False

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gc_collections += 1
            self.gc_s += time.perf_counter() - self._gc_t0


def _bench_timeout_churn(n: int) -> Tuple[_Timed, int]:
    """Sequential timeout yields: the engine's single hottest pattern."""
    sim = Simulator()

    def churn():
        for _ in range(n):
            yield Timeout(sim, 1.0)

    sim.spawn(churn())
    with _Timed() as timed:
        sim.run()
    return timed, sim.events_scheduled


def _bench_resource_churn(n: int) -> Tuple[_Timed, int]:
    """8 contexts contending for a 4-slot resource: acquire/yield/release,
    half the acquisitions queueing."""
    sim = Simulator()
    res = Resource(sim, 4)

    def worker():
        for _ in range(n // 8):
            yield res.acquire()
            yield Timeout(sim, 1.0)
            res.release()

    for _ in range(8):
        sim.spawn(worker())
    with _Timed() as timed:
        sim.run()
    return timed, sim.events_scheduled


def _bench_anyof_cancel(n: int) -> Tuple[_Timed, int]:
    """First-of-two races where the loser is a far timeout: exercises
    loser detach + lazy heap deletion/compaction."""
    sim = Simulator()

    def churn():
        for _ in range(n):
            yield AnyOf(sim, [Timeout(sim, 1.0), Timeout(sim, 1000.0)])

    sim.spawn(churn())
    with _Timed() as timed:
        sim.run()
    return timed, sim.events_scheduled


def _bench_queue_churn(n: int) -> Tuple[_Timed, int]:
    """Near/far horizon mix: ``n`` sequential 1µs timeouts churning
    against a large standing population of far timers — the queue shape
    of an open-loop sweep, where every node keeps retransmission/lease
    timers parked orders of magnitude past the working band.  The heap
    pays O(log population) sifts (and their cache misses) per churn op;
    the calendar parks the far band in its buckets and keeps churn O(1).
    Only churn events count toward the rate."""
    sim = Simulator()
    standing = 16 * n
    for i in range(standing):
        # Far horizon: ~1s out, irregular spacing, never dispatched.
        Timeout(sim, 1.0e9 + 17.0 * i)
    stamps = []

    def churn():
        # Park past the warmup window, then stamp the wall clock from
        # *inside* the dispatch loop: the timed window covers exactly
        # the n churn events, excluding one-time structure setup on
        # either side (the calendar's first-activation rebalance during
        # warmup, and the far-band activation after the last churn event
        # when run(until) probes for the next entry).
        yield Timeout(sim, 32.0)
        stamps.append(time.perf_counter())
        for _ in range(n):
            yield Timeout(sim, 1.0)
        stamps.append(time.perf_counter())

    sim.spawn(churn())
    # Warm up past the first pops so the calendar pays its one-time
    # first-activation rebalance over the standing population here, not
    # in the timed window: this bench measures steady-state churn.
    sim.run(until=16.0)
    with _Timed() as timed:
        sim.run(until=64.0 + float(n))
    timed.wall_s = stamps[1] - stamps[0]
    return timed, n


def _bench_link_stream(n: int) -> Tuple[_Timed, int]:
    """Back-to-back transfers over one serialized link from 4 senders."""
    sim = Simulator()
    link = SerialLink(sim, bandwidth_gbps=100.0, overhead_us=0.1)

    def sender():
        for _ in range(n // 4):
            yield link.transfer(256)

    for _ in range(4):
        sim.spawn(sender())
    with _Timed() as timed:
        sim.run()
    return timed, sim.events_scheduled


def _bench_workload_specs(n: int) -> Tuple[_Timed, int]:
    """Model-layer: transaction-spec generation — mix-table dispatch plus
    Zipf/hotspot key draws — with no simulator in the loop."""
    from ..workloads import Retwis, Smallbank

    streams = [
        Smallbank(3, accounts_per_server=2000,
                  hot_keys_fraction=0.25).generator_for(0, "perf"),
        Retwis(3, keys_per_server=2000).generator_for(0, "perf"),
    ]
    with _Timed() as timed:
        for stream in streams:
            nxt = stream.next
            for _ in range(n // len(streams)):
                nxt()
    return timed, n


def _bench_store_probe(n: int) -> Tuple[_Timed, int]:
    """Model-layer: Robinhood probe loop at 50% load, alternating hits
    and misses (the per-key cost behind every NIC index operation)."""
    from ..store.robinhood import RobinhoodTable

    table = RobinhoodTable(capacity=4096, dm=8, segment_size=8)
    for i in range(2048):
        table.insert(i * 7)
    lookup = table.lookup
    with _Timed() as timed:
        for i in range(n // 2):
            lookup((i % 2048) * 7)      # hit
            lookup((i % 2048) * 7 + 3)  # miss
    return timed, n


def _bench_commit_path(n: int) -> Tuple[_Timed, int]:
    """Model-layer: the no-conflict commit path — one coordinator running
    disjoint single-key read-write transactions back to back through the
    full Xenic stack (execute, validate, log, commit; 1/3 local keys)."""
    from ..core import XenicCluster
    from ..core.txn import TxnSpec

    sim = Simulator()
    cluster = XenicCluster(sim, 3, keys_per_shard=4096, value_size=64)
    cluster.load_keys((k, None, None) for k in range(1000))
    cluster.prewarm_nic_caches()
    cluster.start()
    proto = cluster.protocols[0]
    done = []

    def driver():
        for i in range(n):
            key = i % 1000
            yield from proto.run_transaction(TxnSpec([key], [key]))
        done.append(True)

    sim.spawn(driver(), name="commit-path")
    with _Timed() as timed:
        # background host workers never exit, so run in bounded slices
        # until the driver reports completion
        while not done:
            sim.run(until=sim.now + 10_000.0)
    return timed, sim.events_scheduled


def _bench_fig8d_point(quick: bool) -> Tuple[_Timed, int, int]:
    """One reduced Figure-8d point: Xenic on Smallbank, full protocol
    stack (NIC runtime, DMA, fabric, transactions)."""
    from ..workloads import Smallbank
    from .runner import Bench

    bench = Bench(
        "xenic",
        Smallbank(3, accounts_per_server=2000, hot_keys_fraction=0.25),
        n_nodes=3,
    )
    with _Timed() as timed:
        bench.measure(16 if quick else 64, warmup_us=100.0,
                      window_us=300.0 if quick else 800.0)
    return timed, bench.sim.events_scheduled, bench._total_commits()


def _bench_retwis_point(quick: bool) -> Tuple[_Timed, int, int]:
    """One reduced Retwis point: read-dominated mix with multi-key
    timeline reads, complementing fig8d's write-heavy Smallbank."""
    from ..workloads import Retwis
    from .runner import Bench

    bench = Bench("xenic", Retwis(3, keys_per_server=2000), n_nodes=3)
    with _Timed() as timed:
        bench.measure(16 if quick else 64, warmup_us=100.0,
                      window_us=300.0 if quick else 800.0)
    return timed, bench.sim.events_scheduled, bench._total_commits()


def _bench_nodes64(quick: bool) -> Tuple[_Timed, int, int]:
    """A 64-node Smallbank point: cluster construction, bulk load, and a
    short measurement window at scale.  Exists to keep construction and
    loading O(n_nodes) honest (a quadratic term that is invisible at 3
    nodes dominates here) and to exercise the fused wire/NIC/DMA paths
    across a wide fabric."""
    from ..workloads import Smallbank
    from .runner import Bench

    # Two timed regions: build and measure are each collector-quiet, and
    # the collection they defer belongs to the seam between them.
    timed = _Timed()
    with timed:
        bench = Bench(
            "xenic",
            Smallbank(64, accounts_per_server=250, hot_keys_fraction=0.25),
            n_nodes=64,
        )
    with timed:
        bench.measure(2 if quick else 8, warmup_us=25.0 if quick else 50.0,
                      window_us=50.0 if quick else 250.0)
    return timed, bench.sim.events_scheduled, bench._total_commits()


def _bench_chaos_seed(quick: bool) -> Tuple[_Timed, int, int]:
    """One seeded chaos run: fault injection + invariant checking."""
    from .chaos import run_chaos

    with _Timed() as timed:
        result = run_chaos(system="xenic", seed=3,
                           n_txns=150 if quick else 400, n_nodes=3)
    # ChaosResult surfaces the engine's real event count (sized so even
    # the quick run schedules >=10k events), making the rate column
    # comparable with the other end-to-end benches.
    return timed, result.events_scheduled, result.commits


# name -> (factory, micro?) ; micro benches take an op count, end-to-end
# benches take the quick flag.
_MICRO_N_QUICK = {
    "timeout_churn": 120_000,
    "resource_churn": 48_000,
    "anyof_cancel": 24_000,
    "queue_churn": 24_000,
    "link_stream": 48_000,
    "workload_specs": 60_000,
    "store_probe": 120_000,
    "commit_path": 1_500,
}
_MICRO_N_FULL = {
    "timeout_churn": 400_000,
    "resource_churn": 160_000,
    "anyof_cancel": 80_000,
    "queue_churn": 80_000,
    "link_stream": 160_000,
    "workload_specs": 200_000,
    "store_probe": 400_000,
    "commit_path": 5_000,
}
_MICRO: Dict[str, Callable[[int], Tuple[_Timed, int]]] = {
    "timeout_churn": _bench_timeout_churn,
    "resource_churn": _bench_resource_churn,
    "anyof_cancel": _bench_anyof_cancel,
    "queue_churn": _bench_queue_churn,
    "link_stream": _bench_link_stream,
    "workload_specs": _bench_workload_specs,
    "store_probe": _bench_store_probe,
    "commit_path": _bench_commit_path,
}
_END_TO_END: Dict[str, Callable[[bool], Tuple[_Timed, int, int]]] = {
    "fig8d_point": _bench_fig8d_point,
    "retwis_point": _bench_retwis_point,
    "nodes64": _bench_nodes64,
    "chaos_seed": _bench_chaos_seed,
}


def run_perf(quick: bool = True, repeats: int = 3,
             benches: Optional[List[str]] = None,
             verbose: bool = False) -> Dict[str, Dict[str, float]]:
    """Run the harness; returns ``{bench: {wall_s, events,
    events_per_sec, gc_collections, gc_s}}`` — end-to-end benches
    additionally carry ``txns`` and ``events_per_txn`` (ev/s understates
    a win when the events needed per committed transaction drops) —
    using the best (minimum) wall time of ``repeats`` runs, the standard
    way to strip scheduler noise from wall-clock benchmarks."""
    sizes = _MICRO_N_QUICK if quick else _MICRO_N_FULL
    results: Dict[str, Dict[str, float]] = {}
    for name in benches or list(_MICRO) + list(_END_TO_END):
        if name in _MICRO:
            runs = [_MICRO[name](sizes[name]) for _ in range(repeats)]
        elif name in _END_TO_END:
            runs = [_END_TO_END[name](quick) for _ in range(repeats)]
        else:
            raise ValueError("unknown bench %r (have: %s)" % (
                name, ", ".join(list(_MICRO) + list(_END_TO_END))))
        best = min(runs, key=lambda run: run[0].wall_s)
        timed, events = best[0], best[1]
        wall = timed.wall_s
        results[name] = {
            "wall_s": wall,
            "events": events,
            "events_per_sec": events / wall if wall > 0 else 0.0,
            "gc_collections": timed.gc_collections,
            "gc_s": timed.gc_s,
        }
        if len(best) > 2 and best[2]:
            txns = best[2]
            results[name]["txns"] = txns
            results[name]["events_per_txn"] = events / txns
        if verbose:
            print("%-16s %8.3fs  %10d ev  %12.0f ev/s"
                  % (name, wall, events, results[name]["events_per_sec"]))
    return results


def format_results(results: Dict[str, Dict[str, float]]) -> str:
    lines = ["%-16s %10s %12s %14s %8s %6s %8s"
             % ("bench", "wall_s", "events", "ev/s", "ev/txn", "gc", "gc_s")]
    for name, r in results.items():
        per_txn = ("%8.1f" % r["events_per_txn"]
                   if "events_per_txn" in r else "%8s" % "-")
        lines.append("%-16s %10.3f %12d %14.0f %s %6d %8.3f"
                     % (name, r["wall_s"], r["events"],
                        r["events_per_sec"], per_txn,
                        r["gc_collections"], r["gc_s"]))
    return "\n".join(lines)


def measure_scaling(jobs: int, quick: bool = True) -> Dict[str, float]:
    """Time the same batch of independent curves serially and across a
    ``jobs``-wide pool; ``speedup`` approaches ``jobs`` when enough cores
    are free (a 1-core CI box reports ~1.0 — that is the machine, not a
    regression, which is why --check never gates on this number)."""
    from .parallel import SweepSpec, run_sweeps

    n_curves = max(jobs, 2)
    specs = [
        SweepSpec(system="xenic", workload="smallbank",
                  workload_kwargs=dict(accounts_per_server=1500,
                                       hot_keys_fraction=0.25, seed=i + 1),
                  concurrencies=(8,), n_nodes=3, warmup_us=100.0,
                  window_us=300.0 if quick else 800.0)
        for i in range(n_curves)
    ]
    t0 = time.perf_counter()
    serial = run_sweeps(specs, jobs=1)
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = run_sweeps(specs, jobs=jobs)
    parallel_s = time.perf_counter() - t0
    from .runner import to_jsonable

    identical = to_jsonable(serial) == to_jsonable(parallel)
    return {
        "curves": n_curves,
        "jobs": jobs,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s > 0 else 0.0,
        "identical": identical,
    }


# ---------------------------------------------------------------------------
# trajectory file
# ---------------------------------------------------------------------------


def load_trajectory(path: str = BENCH_FILE) -> dict:
    if not os.path.exists(path):
        return {"schema": SCHEMA, "trajectory": []}
    with open(path) as fh:
        data = json.load(fh)
    if data.get("schema") != SCHEMA:
        raise ValueError("%s: unsupported schema %r" % (path, data.get("schema")))
    return data


def append_entry(results: Dict[str, Dict[str, float]], quick: bool,
                 path: str = BENCH_FILE, label: str = "") -> dict:
    """Append one run to the trajectory file and return the entry."""
    data = load_trajectory(path)
    entry = {
        "label": label or "run%d" % (len(data["trajectory"]) + 1),
        "python": platform.python_version(),
        "quick": bool(quick),
        "queue": selected_queue_kind(),
        "fusion": selected_fusion(),
        "compiled": selected_compiled(),
        "compiled_available": compiled_available(),
        "results": results,
    }
    data["trajectory"].append(entry)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return entry


def baseline_entry(quick: bool, path: str = BENCH_FILE) -> Optional[dict]:
    """Newest comparable trajectory entry at the same scale, if any.
    Entries annotated ``"stale"`` (recorded under a since-changed bench
    definition — see docs/PERFORMANCE.md, trajectory hygiene) are never
    used as a comparison baseline."""
    data = load_trajectory(path)
    for entry in reversed(data["trajectory"]):
        if entry.get("quick") == bool(quick) and not entry.get("stale"):
            return entry
    return None


def compare_entries(results: Dict[str, Dict[str, float]], baseline: dict,
                    max_regression: float = 2.0) -> List[str]:
    """Compare a fresh run against a baseline entry; returns one message
    per bench regressing by more than ``max_regression``x in
    events/second (an empty list means the run is acceptable)."""
    failures = []
    base_results = baseline.get("results", {})
    for name, r in results.items():
        base = base_results.get(name)
        if base is None:
            continue
        base_rate = base.get("events_per_sec", 0.0)
        rate = r.get("events_per_sec", 0.0)
        if base_rate <= 0 or rate <= 0:
            continue
        slowdown = base_rate / rate
        if slowdown > max_regression:
            failures.append(
                "%s: %.0f ev/s vs baseline %.0f ev/s (%.2fx slower, "
                "limit %.1fx)" % (name, rate, base_rate, slowdown,
                                  max_regression))
    return failures


def collection_failures(results: Dict[str, Dict[str, float]]) -> List[str]:
    """One message per end-to-end bench whose timed region saw an
    automatic collection.  Those regions are collector-quiet, so this is
    an exact counter that needs no baseline: any non-zero count means a
    library scope was lost or the steady state started to grow."""
    return [
        "%s: %d automatic collection(s) (%.3fs) inside a collector-quiet "
        "timed region" % (name, r["gc_collections"], r["gc_s"])
        for name, r in results.items()
        if name in _END_TO_END and r.get("gc_collections")
    ]
