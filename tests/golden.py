"""The pinned-seed payloads the digest tests hash.

One committed seed per experiment family, with every simulated metric
the run produces (committed state, counters, latencies, simulated
clock) in a canonical JSON payload — never wall-clock times or
Python-level object counts, which optimizations are free to change.
The digests are pins in ``tests/pins.json``: a change that shifts
simulated behaviour (RNG draw order, event interleaving, protocol
logic) is a modeling change, not a speedup, and fails there.
"""

from __future__ import annotations

import functools
import hashlib
import json
from typing import Any, Dict, List, Optional

from repro.bench.chaos import run_chaos
from repro.bench.runner import Bench, to_jsonable
from repro.workloads import Retwis, Smallbank

# (concurrency, warm-up us, window us) of one ascending baseline sweep
BASELINE_SWEEP = ((8, 80.0, 300.0), (32, 20.0, 100.0), (64, 20.0, 100.0))
# ... and the one Retwis point the baseline payload adds to it
BASELINE_RETWIS_POINT = (16, 40.0, 150.0)


def canonical_digest(payload: Any) -> str:
    """sha256 over the canonical (sorted-keys) JSON form of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fig8d_run(concurrency: int, obs: bool = False,
              faults: Optional[tuple] = None):
    """The reduced Figure-8d point (Xenic on Smallbank, 3 nodes, quick
    window) at ``concurrency`` contexts per node: ``(bench, payload)``,
    so a test can also read what the run exercised off the cluster's
    counters.  At 16 (``golden.c16.digest``) NIC cores almost never
    queue; at 64, the load the benchmark's peak phase applies
    (``golden.c64.digest``), they have waiters.  ``obs=True`` runs the
    same seed under a live Observer and ``faults`` under that fault plan
    (``Bench``'s argument): the digest must not change."""
    bench = Bench(
        "xenic",
        Smallbank(3, accounts_per_server=2000, hot_keys_fraction=0.25),
        n_nodes=3, faults=faults, obs=obs)
    result = bench.measure(concurrency, warmup_us=100.0, window_us=300.0)
    payload = to_jsonable(result)
    payload["sim_now_us"] = bench.sim.now
    payload["total_commits"] = bench.total_commits()
    payload["total_aborts"] = bench.total_aborts()
    return bench, payload


@functools.lru_cache(maxsize=None)
def golden_point(concurrency: int, obs: bool = False):
    """:func:`fig8d_run` built once per session, for the tests that only
    read the run (its payload, its observer's log, its cluster).  A test
    that counts calls while the run is built, or runs it under a fault
    plan or a queue leg, builds its own."""
    return fig8d_run(concurrency, obs)


def baseline_payload(system: str, obs: bool = False,
                     faults: Optional[tuple] = None) -> List[Dict[str, Any]]:
    """Simulated results of one baseline system over ``BASELINE_SWEEP`` on
    Smallbank (3 nodes, 1,500 accounts per server) plus one Retwis point
    (1,500 keys per server), one entry per measured run: commits, aborts,
    throughput, the clock at the end of the run, the events its window
    scheduled and a digest of every primary's committed values and
    versions at that instant.  ``obs=True`` runs the same points under a
    live Observer, and ``faults`` under that fault plan."""
    runs = []
    for workload, points in (
            (Smallbank(3, accounts_per_server=1500, hot_keys_fraction=0.25),
             BASELINE_SWEEP),
            (Retwis(3, keys_per_server=1500), (BASELINE_RETWIS_POINT,))):
        bench = Bench(system, workload, n_nodes=3, faults=faults, obs=obs)
        for concurrency, warmup_us, window_us in points:
            result = bench.measure(concurrency, warmup_us=warmup_us,
                                   window_us=window_us)
            runs.append({
                "workload": workload.name,
                "concurrency": concurrency,
                "commits": result.commits,
                "aborts": result.aborts,
                "throughput_per_server": result.throughput_per_server,
                "sim_now_us": bench.sim.now,
                "events_scheduled": result.events_scheduled,
                "final_values": _primary_values_digest(bench.cluster),
            })
    return runs


def _primary_values_digest(cluster) -> str:
    """sha256 over ``(key, value, version)`` of every object at every
    shard's primary, in key order."""
    rows = sorted(
        (obj.key, repr(obj.value), obj.version)
        for shard, node in enumerate(cluster.nodes)
        for obj in node.tables[shard].objects())
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()


def chaos_payload(obs: bool = False) -> Dict[str, Any]:
    """Simulated metrics of one committed chaos seed (fault machinery +
    invariant checks), including the final committed value of every key."""
    result = run_chaos(system="xenic", seed=3, n_txns=40, n_nodes=3,
                       obs=obs)
    return {
        "system": result.system,
        "seed": result.seed,
        "commits": result.commits,
        "aborts": result.aborts,
        "limbo": result.limbo,
        "violations": list(result.violations),
        "sim_time_us": result.sim_time_us,
        "fault_summary": result.trace.summary() if result.trace else "",
        "final_values": {str(k): v for k, v in
                         sorted(result.final_values.items())},
    }
