"""What the benchmark measures: the workload table and the metric tables.

``workloads.json`` holds the five workloads' parameters; the two tables
below name every metric the benchmark emits, in the order it prints
them.  ``BENCHMARK.json`` at the repo root repeats the names, units,
directions and bounds for the driver (``test_suite.py`` checks the two
agree).

Each metric names its ``source``:

``sim``        a simulated statistic of the peak or lowload window
``counter``    a count the program made, read from public attributes
``reference``  the section-3 hardware model's error against the paper
``host``       host time or memory of an untraced run
``profile``    host time from the traced run's cProfile pass

The first three are *exact*: a pure function of (workload, seed,
seconds), so two runs of the same code must agree on them to the last
digit.  The last two are subject to this machine's noise.
"""

from __future__ import annotations

import json
import os
from typing import NamedTuple, Optional

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
OUT_DIR = os.path.join(SUITE_DIR, "out")   # trace and result files; ignored

with open(os.path.join(SUITE_DIR, "workloads.json")) as _fh:
    TABLE = json.load(_fh)
WORKLOADS = TABLE["workloads"]

# Host time is reported at the speed of the machine the bounds were set
# on: every timed region is bracketed by calibration spins and scaled by
# SPIN_REF_S / (mean of its two spins).  This is what makes two runs on
# a machine whose clock wanders by +-15% within seconds comparable.
SPIN_ITERATIONS = 1_000_000
SPIN_REF_S = 0.050


class Metric(NamedTuple):
    name: str
    unit: str
    better: str            # "higher" | "lower"
    source: str
    bound: Optional[float] = None   # end-to-end only: share of the parent's median

    @property
    def exact(self) -> bool:
        return self.source in ("sim", "counter", "reference")


END_TO_END = [
    Metric("sim_peak_ktxn_s", "ktxn/s", "higher", "sim", 0.20),
    Metric("sim_lowload_p50_us", "us", "lower", "sim", 0.10),
    Metric("sim_peak_p99_us", "us", "lower", "sim", 0.25),
    Metric("sim_abort_frac", "ratio", "lower", "sim", 0.25),
    Metric("sim_events_per_txn", "count", "lower", "sim", 0.10),
    Metric("host_ktxn_per_s", "ktxn/s", "higher", "host", 0.25),
    Metric("setup_s", "s", "lower", "host", 0.25),
    Metric("peak_rss_mb", "MB", "lower", "host", 0.10),
]

LAYERS = ("sim", "hw", "core", "store", "workloads", "baselines", "obs",
          "bench")


def _m(name, unit, better="lower", source="counter"):
    return Metric(name, unit, better, source)


PER_LAYER = (
    [_m("%s.self_s" % layer, "s", source="profile") for layer in LAYERS]
    + [
        _m("bench.unattributed_self_s", "s", source="profile"),
        # sim
        _m("sim.host_us_per_event", "us", source="host"),
        _m("sim.events_total", "count"),
        _m("sim.pending_events_end", "count"),
        # hw
        _m("hw.wire_msgs_per_txn", "count"),
        _m("hw.wire_bytes_per_txn", "B"),
        _m("hw.eth_payloads_per_packet", "count", "higher"),
        _m("hw.dma_ops_per_txn", "count"),
        _m("hw.dma_ops_per_vector", "count", "higher"),
        _m("hw.pcie_crossings_per_txn", "count"),
        _m("hw.rdma_wire_bytes_per_txn", "B"),
        _m("hw.rdma_retries", "count"),
        _m("hw.nic_core_util", "ratio"),
        _m("hw.host_core_util", "ratio"),
        _m("hw.link_util", "ratio"),
        _m("hw.ref_fig2_err_max", "ratio", source="reference"),
        _m("hw.ref_fig4_err_max", "ratio", source="reference"),
        # core (xenic rows; 0 on the baseline row)
        _m("core.aborts_per_commit", "ratio"),
        _m("core.lock_conflicts_per_txn", "count"),
        _m("core.validate_conflicts_per_txn", "count"),
        _m("core.requests_per_txn", "count"),
        _m("core.nic_exec_frac", "ratio", "higher"),
        _m("core.multihop_frac", "ratio"),
        _m("core.local_readonly_frac", "ratio", "higher"),
        _m("core.log_appends_per_txn", "count"),
        _m("core.log_backpressure_per_ktxn", "count"),
        # store (xenic rows)
        _m("store.nic_cache_hit_rate", "ratio", "higher"),
        _m("store.nic_cache_evictions_per_txn", "count"),
        _m("store.robinhood_probe_len_mean", "count"),
        _m("store.log_appended_per_txn", "count"),
        # workloads
        _m("workloads.host_us_per_spec", "us", source="host"),
        # baselines (baseline row; 0 on xenic rows)
        _m("baselines.aborts_per_commit", "ratio"),
        # bench
        _m("bench.setup_construct_s", "s", source="profile"),
        _m("bench.setup_load_s", "s", source="profile"),
        _m("bench.setup_prewarm_s", "s", source="profile"),
        _m("bench.trace_overhead_x", "x", source="profile"),
        _m("bench.host_spread", "ratio", source="host"),
        _m("bench.host_ktxn_per_s_raw", "ktxn/s", "higher", source="host"),
        _m("bench.calib_spin_s", "s", source="host"),
    ]
)

UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}


def build_workload(spec: dict, seed: int, smoke: bool):
    """A fresh Workload object for ``spec`` (workloads keep per-stream
    state, so every cluster gets its own)."""
    from repro.workloads import WORKLOADS as classes

    kwargs = dict(spec["workload_kwargs"])
    if smoke:
        kwargs.update(spec["smoke_kwargs"])
    return classes[spec["workload"]](spec["nodes"], seed=seed, **kwargs)


def build_bench(spec: dict, seed: int, smoke: bool):
    """``Bench(...)``: construct + load + NIC-cache prewarm + start."""
    from repro.bench.runner import Bench
    from repro.core import XenicConfig

    config = spec["xenic_config"]
    return Bench(
        spec["system"], build_workload(spec, seed, smoke),
        n_nodes=spec["nodes"],
        xenic_config=XenicConfig(**config) if config else None,
    )
