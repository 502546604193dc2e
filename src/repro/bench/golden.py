"""Golden-digest determinism checks for the model layer.

The hard invariant of every wall-clock optimization PR is that the
*simulated* results stay byte-identical per seed: an "optimization" that
changes RNG draw order, event interleaving, or protocol behaviour is a
modeling change, not a speedup.  This module runs one committed seed per
experiment family, collects every simulated metric the run produces into
a canonical JSON payload, and hashes it.  ``tests/test_golden_digest.py``
pins the digests; any model-layer change that shifts simulated behaviour
fails loudly there.

The payloads deliberately include *only* simulated quantities (committed
state, counters, latencies, simulated clock) — never wall-clock times or
Python-level object counts, which optimizations are free to change.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional

__all__ = ["canonical_digest", "fig8d_point_payload", "fig8d_peak_payload",
           "chaos_payload", "BASELINE_SWEEP", "baseline_payload"]

# (concurrency, warm-up us, window us) of one ascending baseline sweep
BASELINE_SWEEP = ((8, 80.0, 300.0), (32, 20.0, 100.0), (64, 20.0, 100.0))
# ... and the one Retwis point the baseline payload adds to it
BASELINE_RETWIS_POINT = (16, 40.0, 150.0)


def canonical_digest(payload: Any) -> str:
    """sha256 over the canonical (sorted-keys) JSON form of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fig8d_point_payload(obs: bool = False,
                        faults: Optional[tuple] = None) -> Dict[str, Any]:
    """Simulated metrics of the reduced Figure-8d point ``FIG8D_DIGEST``
    pins (Xenic on Smallbank, 3 nodes, quick window, 16 contexts per
    node: NIC cores almost never queue — 3 of 11,078 inbound dispatches
    find no free core).  ``obs=True`` runs the same seed under
    a live Observer — the digest must not change (observer neutrality) —
    and ``faults`` under that fault plan (``Bench``'s argument)."""
    return _fig8d_run(16, obs, faults)[1]


def fig8d_peak_payload(obs: bool = False) -> Dict[str, Any]:
    """The same cluster at the load the benchmark's peak phase applies
    (64 contexts per node).  NIC cores have waiters here — 2,342 of
    36,551 inbound dispatches find no free core and take the contended
    form — and the digest is the same observed, unobserved and under a
    fault plan that never fires (``tests/test_peak_pins.py``)."""
    return _fig8d_run(64, obs)[1]


def _fig8d_run(concurrency: int, obs: bool,
               faults: Optional[tuple] = None):
    """Run the fig8d cluster; returns ``(bench, payload)`` so a test can
    also read what the run exercised off the cluster's counters."""
    from ..workloads import Smallbank
    from .runner import Bench, to_jsonable

    bench = Bench(
        "xenic",
        Smallbank(3, accounts_per_server=2000, hot_keys_fraction=0.25),
        n_nodes=3,
        faults=faults,
        obs=obs,
    )
    result = bench.measure(concurrency, warmup_us=100.0, window_us=300.0)
    payload = to_jsonable(result)
    payload["sim_now_us"] = bench.sim.now
    payload["total_commits"] = bench.total_commits()
    payload["total_aborts"] = bench.total_aborts()
    return bench, payload


def baseline_payload(system: str, obs: bool = False,
                     faults: Optional[tuple] = None) -> List[Dict[str, Any]]:
    """Simulated results of one baseline system over ``BASELINE_SWEEP`` on
    Smallbank (3 nodes, 1,500 accounts per server) plus one Retwis point
    (1,500 keys per server), one entry per measured run: commits, aborts,
    throughput, the clock at the end of the run, the events its window
    scheduled and a digest of every primary's committed values and
    versions at that instant.  ``obs=True`` runs the same points under a
    live Observer, and ``faults`` under that fault plan."""
    from ..workloads import Retwis, Smallbank
    from .runner import Bench

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
    from .chaos import run_chaos

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
