"""Tests for the parallel sweep executor and the wall-clock perf harness:
--jobs N output must be byte-identical to serial, chaos seeds must fan
out unchanged, and the trajectory-file compare logic must catch
regressions."""

import json

import pytest

from repro.bench.parallel import (SweepSpec, run_chaos_seeds, run_sweeps,
                                  set_default_jobs)
from repro.bench.perf import (append_entry, baseline_entry,
                              collection_failures, compare_entries,
                              load_trajectory, run_perf)
from repro.bench.runner import to_jsonable


def _small_specs(n=4):
    """A Figure-8-style curve set, scaled for CI: n curves across two
    systems and staggered workload seeds."""
    systems = ("xenic", "drtmh")
    return [
        SweepSpec(system=systems[i % len(systems)], workload="smallbank",
                  workload_kwargs=dict(accounts_per_server=1200,
                                       hot_keys_fraction=0.25, seed=i + 1),
                  concurrencies=(2, 6), n_nodes=3, warmup_us=50.0,
                  window_us=200.0)
        for i in range(n)
    ]


def test_parallel_jobs4_byte_identical_to_serial():
    specs = _small_specs(4)
    serial = run_sweeps(specs, jobs=1)
    parallel = run_sweeps(specs, jobs=4)
    assert json.dumps(to_jsonable(serial), sort_keys=True) == \
        json.dumps(to_jsonable(parallel), sort_keys=True)
    # order-stable merge: result i belongs to spec i
    for spec, results in zip(specs, serial):
        assert all(r.system == spec.system for r in results)
        assert [r.concurrency for r in results] == list(spec.concurrencies)


def test_sweepspec_is_picklable_and_normalized():
    import pickle

    spec = _small_specs(1)[0]
    assert isinstance(spec.workload_kwargs, tuple)
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert spec.label == spec.system  # defaulted


def test_parallel_chaos_seeds_match_serial():
    kwargs = [dict(system="xenic", seed=s, n_txns=8, n_nodes=3)
              for s in (1, 2, 3)]
    serial = run_chaos_seeds(kwargs, jobs=1)
    parallel = run_chaos_seeds(kwargs, jobs=3)
    assert [r.seed for r in parallel] == [1, 2, 3]
    for a, b in zip(serial, parallel):
        assert (a.commits, a.aborts, a.violations) == \
            (b.commits, b.aborts, b.violations)


def test_jobs_default_is_process_global():
    from repro.bench.parallel import default_jobs

    set_default_jobs(7)
    try:
        assert default_jobs() == 7
    finally:
        set_default_jobs(1)
    assert default_jobs() == 1


def test_fig8_entry_point_accepts_jobs():
    from repro.bench.experiments import _fig8_sweep

    curves = _fig8_sweep(
        "smallbank", dict(accounts_per_server=1200, hot_keys_fraction=0.25),
        (2, 4), systems=("xenic",), n_nodes=3, window_us=200.0,
        warmup_us=50.0, jobs=2)
    assert set(curves) == {"xenic"}
    assert [r.concurrency for r in curves["xenic"]] == [2, 4]


# ---------------------------------------------------------------------------
# perf harness
# ---------------------------------------------------------------------------


def test_run_perf_micro_smoke():
    results = run_perf(quick=True, repeats=1,
                       benches=["timeout_churn", "anyof_cancel"])
    assert set(results) == {"timeout_churn", "anyof_cancel"}
    for r in results.values():
        assert r["wall_s"] > 0
        assert r["events"] > 0
        assert r["events_per_sec"] > 0
        assert r["gc_collections"] >= 0 and r["gc_s"] >= 0.0


def test_collection_gate_counts_end_to_end_benches_only():
    """``perf --check`` fails on any collection inside an end-to-end
    bench's timed region; micro benches are reported, not gated."""
    clean = {"wall_s": 0.1, "events": 1, "events_per_sec": 10.0,
             "gc_collections": 0, "gc_s": 0.0}
    dirty = dict(clean, gc_collections=3, gc_s=0.002)
    assert collection_failures({"fig8d_point": clean,
                                "timeout_churn": dirty}) == []
    failures = collection_failures({"fig8d_point": dirty,
                                    "chaos_seed": clean})
    assert len(failures) == 1 and failures[0].startswith("fig8d_point: 3 ")


def test_end_to_end_bench_timed_region_is_collection_free():
    results = run_perf(quick=True, repeats=1, benches=["chaos_seed"])
    assert collection_failures(results) == []


def test_run_perf_rejects_unknown_bench():
    with pytest.raises(ValueError):
        run_perf(benches=["not_a_bench"])


def test_trajectory_roundtrip_and_regression_check(tmp_path):
    path = str(tmp_path / "traj.json")
    results = {"timeout_churn": {"wall_s": 0.1, "events": 100_000,
                                 "events_per_sec": 1_000_000.0}}
    entry = append_entry(results, quick=True, path=path, label="base")
    assert entry["label"] == "base"
    data = load_trajectory(path)
    assert data["schema"] == 1 and len(data["trajectory"]) == 1

    base = baseline_entry(True, path)
    assert base is not None and base["label"] == "base"
    assert baseline_entry(False, path) is None  # no full-scale entry

    ok = {"timeout_churn": {"wall_s": 0.12, "events": 100_000,
                            "events_per_sec": 833_333.0}}
    assert compare_entries(ok, base, max_regression=2.0) == []
    slow = {"timeout_churn": {"wall_s": 0.5, "events": 100_000,
                              "events_per_sec": 200_000.0}}
    failures = compare_entries(slow, base, max_regression=2.0)
    assert len(failures) == 1 and "timeout_churn" in failures[0]

    # appending keeps history: the newest same-scale entry wins
    append_entry(slow, quick=True, path=path, label="later")
    assert baseline_entry(True, path)["label"] == "later"
    assert len(load_trajectory(path)["trajectory"]) == 2


def test_committed_baseline_is_valid():
    """The repo ships BENCH_simperf.json; it must parse and hold at least
    one quick-scale entry with the core benches."""
    import os

    path = os.path.join(os.path.dirname(__file__), "..",
                        "BENCH_simperf.json")
    data = load_trajectory(path)
    assert data["trajectory"], "committed trajectory is empty"
    base = baseline_entry(True, path)
    assert base is not None
    assert "timeout_churn" in base["results"]


def test_perf_cli_check_mode(tmp_path):
    from repro.__main__ import main

    path = str(tmp_path / "perf.json")
    # first --check run records a baseline and passes
    assert main(["perf", "--repeats", "1", "--bench", "timeout_churn",
                 "--baseline", path, "--check"]) == 0
    # second run compares against it (same machine: well within 2x)
    assert main(["perf", "--repeats", "1", "--bench", "timeout_churn",
                 "--baseline", path, "--check"]) == 0
