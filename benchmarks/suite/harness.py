"""One run of one workload, in this process: setup, lowload, peak, audit.

Everything is driven from outside through public API.  The peak window
is fixed in simulated microseconds and run as ``peak_slices``
consecutive ``Bench.measure`` calls at the same concurrency (the first
carries the warm-up), which simulates exactly what one call over the
whole window would.  Slicing exists for the host metrics: this
machine's speed wanders by +-15% within seconds, so every timed region
is bracketed by calibration spins and reported at reference speed, and
``host_ktxn_per_s`` is the median of the per-slice rates.
"""

from __future__ import annotations

import contextlib
import cProfile
import gc
import json
import os
import platform
import resource
import statistics
import time
from typing import Callable, Dict, List, Optional, Tuple

import audit
import counters
import layers
from repro.bench.experiments import figure2_latency, figure4_dma
from repro.sim.compiled import compiled_available, selected_compiled
from repro.sim.equeue import selected_queue_kind
from repro.sim.fusion import selected_fusion
from spec import (LAYERS, OUT_DIR, PER_LAYER, SPIN_ITERATIONS, SPIN_REF_S,
                  SUITE_DIR, TABLE, WORKLOADS, build_bench, build_workload)


def calibration_spin() -> float:
    """Host seconds for a fixed pure-Python integer loop."""
    t0 = time.perf_counter()
    x = 0
    for i in range(SPIN_ITERATIONS):
        x = (x * 31 + i) & 0xFFFF
    return time.perf_counter() - t0


class HostTimer:
    """Times regions between calibration spins.  ``timed`` returns the
    region's result, its wall seconds, and its seconds at reference
    speed: wall x SPIN_REF_S / mean(spin before, spin after)."""

    def __init__(self):
        self.spins: List[float] = [calibration_spin()]

    def timed(self, fn: Callable, profile: Optional[cProfile.Profile] = None
              ) -> Tuple[object, float, float]:
        before = self.spins[-1]
        t0 = time.perf_counter()
        if profile is not None:
            profile.enable()
        try:
            result = fn()
        finally:
            if profile is not None:
                profile.disable()
        wall = time.perf_counter() - t0
        self.spins.append(calibration_spin())
        return result, wall, wall * SPIN_REF_S / ((before + self.spins[-1]) / 2)


class Spans:
    """In-memory phase spans: name, start, end, parent, workload id."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[Dict] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def __call__(self, name: str):
        span = {"id": len(self.spans), "name": name,
                "parent": self._open[-1] if self._open else None,
                "workload": self.workload,
                "start_s": time.perf_counter(), "end_s": None}
        self.spans.append(span)
        self._open.append(span["id"])
        try:
            yield
        finally:
            self._open.pop()
            span["end_s"] = time.perf_counter()


def run_info(seed: int, seconds: float, smoke: bool) -> Dict:
    return {
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "queue": selected_queue_kind(),
        "fusion": selected_fusion(),
        "compiled": selected_compiled(),
        "compiled_available": compiled_available(),
        "python": platform.python_version(),
        "spin_ref_s": SPIN_REF_S,
    }


def reference_errors() -> Dict[str, float]:
    """Max relative error of the section-3 hardware model against the
    paper's numbers in reference.json (Fig. 2 CX5 RTTs, Fig. 4 vectored
    DMA ceiling).  Table 2 and the Fig. 8 ratios are out of scope."""
    with open(os.path.join(SUITE_DIR, "reference.json")) as fh:
        ref = json.load(fh)
    fig2 = figure2_latency()
    fig4 = figure4_dma()["throughput"]
    ceiling = max(max(fig4[mode].values())
                  for mode in ref["fig4_dma"]["modes"])
    paper_ceiling = ref["fig4_dma"]["vectored_ceiling_mops_s"]
    return {
        "hw.ref_fig2_err_max": max(
            abs(fig2[op] - paper) / paper
            for op, paper in ref["fig2_cx5_rtt_us"].items()),
        "hw.ref_fig4_err_max": abs(ceiling - paper_ceiling) / paper_ceiling,
    }


def profile_metrics(bench, setup_stats, peak_buckets) -> Dict[str, float]:
    """The per-layer metrics that come from the traced run's profiles.
    ``*.self_s`` is the traced peak slice alone: that is what moves
    ``host_ktxn_per_s``.  The set-up's own buckets go to the trace file;
    here it shows as the cumulative time of its three stages."""
    cluster_cls, workload_cls = type(bench.cluster), type(bench.workload)
    out = {"%s.self_s" % layer: peak_buckets[layer] for layer in LAYERS}
    out["bench.unattributed_self_s"] = peak_buckets["unattributed"]
    out["bench.setup_construct_s"] = layers.cumulative_s(
        setup_stats, cluster_cls.__init__)
    out["bench.setup_load_s"] = layers.cumulative_s(
        setup_stats, workload_cls.load)
    out["bench.setup_prewarm_s"] = (
        layers.cumulative_s(setup_stats, cluster_cls.prewarm_nic_caches)
        if counters.is_xenic(bench) else 0.0)
    return out


def run_once(name: str, seed: int, seconds: float, traced: bool,
             smoke: bool = False) -> Dict:
    """Run workload ``name`` once and return its full record."""
    spec = WORKLOADS[name]
    small = TABLE["smoke"] if smoke else {}
    slices = small.get("peak_slices", TABLE["peak_slices"])
    window_us = small.get("peak_window_us",
                          spec["peak_us_per_host_s"] * seconds)
    low_window_us = small.get("lowload_window_us", spec["lowload_window_us"])
    audit_shape = small.get("audit", spec["audit"])
    spec_draws = small.get("spec_draws", TABLE["spec_draws"])
    warmup_us = TABLE["warmup_us"]

    spans = Spans(name)
    per_layer: Dict[str, float] = {}
    setup_samples: List[float] = []
    with spans("run"):
        timer = HostTimer()

        with spans("setup"):
            setup_profile = cProfile.Profile() if traced else None
            bench, _, norm = timer.timed(
                lambda: build_bench(spec, seed, smoke), setup_profile)
            setup_samples.append(norm)
            # keep the loaded tables out of every later collection
            gc.collect()
            gc.freeze()

        with spans("lowload"):
            low = bench.measure(spec["c_low"], warmup_us=warmup_us,
                                window_us=low_window_us)

        with spans("peak"):
            before = counters.snapshot(bench)
            results, walls, norms, commits = [], [], [], []
            for i in range(slices):
                commits0 = counters.total_commits(bench)
                result, wall, norm = timer.timed(lambda: bench.measure(
                    spec["c_high"], warmup_us=warmup_us if i == 0 else 0.0,
                    window_us=window_us / slices))
                results.append(result)
                walls.append(wall)
                norms.append(norm)
                commits.append(counters.total_commits(bench) - commits0)
            after = counters.snapshot(bench)
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        per_layer.update(counters.derive(before, after, bench))
        peak_events = after["events"] - before["events"]
        untraced_us_per_event = sum(norms) * 1e6 / peak_events
        per_layer["sim.host_us_per_event"] = untraced_us_per_event

        buckets = None
        if traced:
            with spans("peak_traced"):
                peak_profile = cProfile.Profile()
                events0 = bench.sim.events_scheduled
                _, _, norm = timer.timed(lambda: bench.measure(
                    spec["c_high"], warmup_us=0.0,
                    window_us=window_us * TABLE["traced_window_fraction"]),
                    peak_profile)
                traced_events = bench.sim.events_scheduled - events0
            per_layer["bench.trace_overhead_x"] = (
                norm * 1e6 / traced_events / untraced_us_per_event)
            setup_stats = layers.stats_of(setup_profile)
            buckets = {"setup": layers.bucket(setup_stats),
                       "peak": layers.bucket(layers.stats_of(peak_profile))}
            per_layer.update(profile_metrics(bench, setup_stats,
                                             buckets["peak"]))
            per_layer.update(reference_errors())

        with spans("specgen"):
            stream = build_workload(spec, seed, smoke).generator_for(0, "suite")

            def draw():
                nxt = stream.next
                for _ in range(spec_draws):
                    nxt()
            _, _, norm = timer.timed(draw)
            per_layer["workloads.host_us_per_spec"] = norm * 1e6 / spec_draws

        # Two more fresh set-ups, so setup_s is a median of three: the
        # audit's cluster, and one built only to be timed.
        with spans("audit"):
            gc.unfreeze()
            del bench
            gc.collect()
            audit_bench, _, norm = timer.timed(
                lambda: build_bench(spec, seed, smoke))
            setup_samples.append(norm)
            audited = audit.run_audit(audit_bench, audit_shape[0],
                                      audit_shape[1],
                                      TABLE["audit_deadline_us"])
            del audit_bench
            gc.collect()
        with spans("setup_again"):
            _, _, norm = timer.timed(lambda: build_bench(spec, seed, smoke))
            setup_samples.append(norm)

    rates = [c / n / 1e3 for c, n in zip(commits, norms)]
    window_total = sum(r.window_us for r in results)
    window_commits = sum(r.commits for r in results)
    window_aborts = sum(r.aborts for r in results)
    end_to_end = {
        "sim_peak_ktxn_s": sum(r.throughput_per_server * r.window_us
                               for r in results) / window_total / 1e3,
        "sim_lowload_p50_us": low.median_latency_us,
        "sim_peak_p99_us": statistics.mean(r.p99_latency_us
                                           for r in results),
        "sim_abort_frac": window_aborts / (window_aborts + window_commits),
        "sim_events_per_txn": sum(r.events_scheduled for r in results)
        / window_commits,
        "host_ktxn_per_s": statistics.median(rates),
        # a traced run's first set-up ran under the profiler
        "setup_s": statistics.median(setup_samples[1:] if traced
                                     else setup_samples),
        "peak_rss_mb": peak_rss_mb,
    }
    per_layer["bench.host_spread"] = (
        (max(rates) - min(rates)) / statistics.median(rates))
    per_layer["bench.host_ktxn_per_s_raw"] = sum(commits) / sum(walls) / 1e3
    per_layer["bench.calib_spin_s"] = statistics.median(timer.spins)

    problems = list(audited["violations"])
    for metric, (lo, hi) in spec["expect"].items():
        if not lo <= per_layer[metric] <= hi:
            problems.append("%s = %.4f outside [%s, %s]"
                            % (metric, per_layer[metric], lo, hi))
    record = {
        "workload": name,
        "traced": traced,
        "info": run_info(seed, seconds, smoke),
        "params": {"peak_window_us": window_us, "peak_slices": slices,
                   "lowload_window_us": low_window_us, "audit": audit_shape,
                   "lowload_samples": low.commits,
                   "peak_samples": window_commits},
        "end_to_end": end_to_end,
        "per_layer": {m.name: per_layer[m.name] for m in PER_LAYER
                      if m.name in per_layer},
        "samples": {"host_ktxn_per_s": rates, "setup_s": setup_samples,
                    "calib_spin_s": timer.spins},
        "audit": audited,
        "correct": not problems,
        "problems": problems,
    }
    if traced:
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, "%s.trace.json" % name), "w") as fh:
            json.dump({"workload": name, "info": record["info"],
                       "spans": spans.spans, "self_s": buckets,
                       "samples": record["samples"],
                       "counters": {"before_peak": before,
                                    "after_peak": after},
                       "per_layer": record["per_layer"]}, fh, indent=1)
            fh.write("\n")
    return record
