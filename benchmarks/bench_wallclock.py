"""Wall-clock performance of the simulator itself (docs/PERFORMANCE.md).

Unlike the sibling benchmarks — which regenerate the paper's simulated
results — this one measures how fast the simulation *runs*, appending to
the ``BENCH_simperf.json`` trajectory semantics via ``repro.bench.perf``.

Runnable two ways::

    PYTHONPATH=src python -m pytest benchmarks/bench_wallclock.py -q
    PYTHONPATH=src python benchmarks/bench_wallclock.py          # standalone
"""

import sys

from repro.bench.perf import format_results, run_perf


def test_wallclock(benchmark, quick):
    results = benchmark.pedantic(
        lambda: run_perf(quick=quick, repeats=1, verbose=True),
        rounds=1, iterations=1,
    )
    # Sanity floor, far below any real machine: catches harness breakage
    # (zero events, infinite loops), not performance.
    for name, r in results.items():
        assert r["events"] > 0, name
        assert r["wall_s"] > 0, name
    assert results["timeout_churn"]["events_per_sec"] > 10_000


if __name__ == "__main__":
    quick = "--full" not in sys.argv
    print(format_results(run_perf(quick=quick, repeats=3)))
