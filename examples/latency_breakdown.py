#!/usr/bin/env python
"""Where does a transaction's time go?  Phase-by-phase latency breakdown.

Runs the Smallbank mix at low load under an Observer and prints two
decompositions of the committed transactions' latency: the exact
attribution (wire, DMA, NIC service vs. queueing, host, ...) and the
coordinator's protocol phases — the same breakdown that drives the
paper's Figure 9b latency ablation.

Run:  python examples/latency_breakdown.py
"""

from collections import defaultdict

from repro.bench import Bench
from repro.obs.attrib import attribute_bench
from repro.workloads import Smallbank

N_NODES = 3


def main():
    workload = Smallbank(N_NODES, accounts_per_server=4000,
                         hot_keys_fraction=0.25)
    bench = Bench("xenic", workload, n_nodes=N_NODES, obs=True)
    result = bench.measure(2, warmup_us=100.0, window_us=400.0)
    attribution = attribute_bench(bench)

    print("median latency: %.1f us (p99 %.1f us)"
          % (result.median_latency_us, result.p99_latency_us))
    print()
    print(attribution.format())

    # the coordinator-side protocol phases, from the Observer's spans
    by_txn = defaultdict(list)
    totals = defaultdict(float)
    for span in bench.observer.log.spans():
        if span.cat == "phase":
            by_txn[span.txn_id].append(span)
            totals[span.name] += span.dur
    print()
    print("mean time per coordinator phase (us), over %d txns:"
          % len(by_txn))
    for phase, total_us in sorted(totals.items(), key=lambda kv: -kv[1]):
        print("  %-16s %6.2f" % (phase, total_us / len(by_txn)))

    slowest = max(attribution.txns, key=lambda t: t.latency_us)
    print()
    print("slowest committed txn: %s, %.1f us over %d attempt(s)"
          % (slowest.label, slowest.latency_us, slowest.attempts))
    for span in sorted(by_txn[slowest.txn_id], key=lambda s: s.ts):
        print("  %-16s %8.2f -> %8.2f  (%.2f us)"
              % (span.name, span.ts, span.ts + span.dur, span.dur))


if __name__ == "__main__":
    main()
