"""Tests for the parallel sweep executor: --jobs N output must be
byte-identical to serial, and chaos seeds must fan out unchanged."""

import json

from repro.bench.parallel import (SweepSpec, run_chaos_seeds, run_sweeps,
                                  set_default_jobs)
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
