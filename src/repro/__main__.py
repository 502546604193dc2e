"""Command-line interface: regenerate any table/figure of the paper.

Usage::

    python -m repro list
    python -m repro fig2
    python -m repro fig8d --full
    python -m repro tab2 --keys 50000
    python -m repro ablation-cache

Each command prints the same rows/series the paper reports; ``--full``
switches from the quick CI scale to a larger (slower) configuration.

Fault injection (``docs/FAULTS.md``)::

    python -m repro chaos --faults "drop=0.02,dup=0.01" --seeds 20 --check
    python -m repro fig8d --faults "delay=0.05:8" --fault-seed 7

``chaos`` runs seeded randomized fault schedules against the invariant
checker; ``--faults`` on any experiment runs that experiment under the
given fault plan.

Observability (``docs/OBSERVABILITY.md``)::

    python -m repro trace --workload smallbank --trace-out /tmp/t.json
    python -m repro metrics --workload retwis
    python -m repro metrics --diff a.json b.json
    python -m repro fig8d --trace-out fig8d.json
    python -m repro chaos --obs --trace-out chaos.json
    python -m repro fig8d --json        # machine-readable BENCH_fig8d.json

``trace`` runs one workload with the full observability layer and writes
a Perfetto-loadable Chrome trace; ``--obs``/``--trace-out`` on any
experiment or on ``chaos`` does the same for that run, and ``--json``
dumps every experiment's results to ``BENCH_<name>.json``.

Latency attribution and SLO curves (``docs/OBSERVABILITY.md``)::

    python -m repro attrib --workload smallbank
    python -m repro slo --loads 50000,200000,800000 --arrival bursty --json

``attrib`` decomposes every committed transaction's latency into phases
(wire, NIC queue/service, DMA, host, lock backoff, ...); ``slo`` drives
the cluster open-loop at a sweep of offered loads and reports the
p50/p99/p999 sojourn curve plus the detected SLO knee.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bench import (
    DEFAULT_CHAOS_FAULTS,
    Bench,
    OpenLoopBench,
    SloSpec,
    cache_capacity_sweep,
    displacement_limit_sweep,
    figure2_latency,
    figure3_batching,
    figure4_dma,
    figure8a_tpcc_new_order,
    figure8b_tpcc_full,
    figure8c_retwis,
    figure8d_smallbank,
    figure9a_throughput_ablation,
    figure9b_latency_ablation,
    live_observers,
    offpath_comparison,
    offpath_platform_check,
    format_slo_report,
    run_chaos,
    run_chaos_seeds,
    run_slo_points,
    set_default_faults,
    set_default_jobs,
    set_default_obs,
    slo_report,
    table1_cores,
    table2_lookup,
    table3_thread_counts,
    workload_by_name,
    write_results_json,
)
from .obs import (attribute_bench, diff_metrics, format_metrics_diff,
                  print_metrics_summary, write_chrome_trace,
                  write_metrics_json)

# The trace/metrics subcommands default to a light fault plan so the
# exported timeline includes fault instant events; --faults none disables.
DEFAULT_TRACE_FAULTS = "delay=0.03:6,dup=0.01"

COMMANDS = {
    "fig2": ("Figure 2: remote-op roundtrip latency",
             lambda a: figure2_latency(verbose=True)),
    "fig3": ("Figure 3: batched vs single remote writes",
             lambda a: figure3_batching(
                 sizes=(16, 64, 256),
                 ops_per_sender=1000 if a.full else 250, verbose=True)),
    "fig4": ("Figure 4: DMA engine throughput/latency",
             lambda a: figure4_dma(
                 sizes=(16, 64, 256),
                 total_ops=6000 if a.full else 1200, verbose=True)),
    "tab1": ("Table 1: ARM vs Xeon calibration",
             lambda a: table1_cores(verbose=True)),
    "tab2": ("Table 2: lookup cost at 90% occupancy",
             lambda a: table2_lookup(n_keys=a.keys, verbose=True)),
    "fig8a": ("Figure 8a: TPC-C New-Order curves",
              lambda a: figure8a_tpcc_new_order(quick=not a.full,
                                                verbose=True)),
    "fig8b": ("Figure 8b: full TPC-C mix",
              lambda a: figure8b_tpcc_full(quick=not a.full, verbose=True,
                                           systems=("xenic", "drtmr"))),
    "fig8c": ("Figure 8c: Retwis curves",
              lambda a: figure8c_retwis(quick=not a.full, verbose=True)),
    "fig8d": ("Figure 8d: Smallbank curves",
              lambda a: figure8d_smallbank(quick=not a.full, verbose=True)),
    "tab3": ("Table 3: thread counts at >=95% of peak",
             lambda a: table3_thread_counts(quick=not a.full, verbose=True)),
    "fig9a": ("Figure 9a: throughput feature ladder",
              lambda a: figure9a_throughput_ablation(quick=not a.full,
                                                     verbose=True)),
    "fig9b": ("Figure 9b: latency feature ladder",
              lambda a: figure9b_latency_ablation(quick=not a.full,
                                                  verbose=True)),
    "offpath": ("§3.1: off-path SmartNIC measurements",
                lambda a: offpath_comparison(verbose=True)),
    "ablation-cache": ("NIC cache capacity sweep",
                       lambda a: cache_capacity_sweep(verbose=True)),
    "ablation-dm": ("Robinhood displacement-limit sweep",
                    lambda a: displacement_limit_sweep(n_keys=a.keys,
                                                       verbose=True)),
    "ablation-offpath": ("Xenic on an off-path platform (§4.3.4)",
                         lambda a: offpath_platform_check(verbose=True)),
}


def _add_jobs_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="fan independent curves/seeds across N worker "
                        "processes (results are identical to --jobs 1)")


def _add_fault_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help="fault spec, e.g. 'drop=0.02,dup=0.01,delay=0.05:8' "
                        "(see docs/FAULTS.md)")
    p.add_argument("--fault-seed", type=int, default=1234,
                   help="root seed of the fault-injection RNG streams")


def _add_obs_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--obs", action="store_true",
                   help="install the observability layer "
                        "(docs/OBSERVABILITY.md)")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="write a Chrome trace-event JSON (implies --obs)")


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workload", default="smallbank",
                   choices=("smallbank", "retwis", "tpcc", "tpcc_no"),
                   help="workload to drive")
    p.add_argument("--system", default="xenic",
                   help="xenic | drtmh | drtmh_nc | fasst | drtmr")
    p.add_argument("--nodes", type=int, default=3, help="cluster size")
    p.add_argument("--concurrency", type=int, default=4,
                   help="closed-loop contexts per node")
    p.add_argument("--warmup", type=float, default=100.0,
                   help="warmup before the window, simulated µs")
    p.add_argument("--window", type=float, default=400.0,
                   help="measurement window, simulated µs")
    p.add_argument("--seed", type=int, default=7, help="workload seed")
    p.add_argument("--sample-interval", type=float, default=20.0,
                   help="gauge sampling interval, simulated µs")
    p.add_argument("--faults", default=DEFAULT_TRACE_FAULTS, metavar="SPEC",
                   help="fault spec ('none' to disable; default: %(default)s"
                        " so the timeline shows fault instants)")
    p.add_argument("--fault-seed", type=int, default=1234,
                   help="root seed of the fault-injection RNG streams")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the Xenic paper's tables and figures "
                    "(simulated).",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiments")
    all_parser = sub.add_parser("all", help="run every experiment")
    all_parser.add_argument("--full", action="store_true")
    all_parser.add_argument("--keys", type=int, default=20000)
    all_parser.add_argument("--json", action="store_true",
                            help="write BENCH_<name>.json per experiment")
    _add_jobs_arg(all_parser)
    _add_fault_args(all_parser)
    _add_obs_args(all_parser)
    for name, (help_text, _fn) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--full", action="store_true",
                       help="larger, slower configuration")
        p.add_argument("--keys", type=int, default=20000,
                       help="keyspace size for table-structure experiments")
        p.add_argument("--json", action="store_true",
                       help="write machine-readable results to "
                            "BENCH_%s.json" % name)
        _add_jobs_arg(p)
        _add_fault_args(p)
        _add_obs_args(p)
    chaos = sub.add_parser(
        "chaos",
        help="randomized fault schedules + invariant checks (docs/FAULTS.md)")
    chaos.add_argument("--faults", default=DEFAULT_CHAOS_FAULTS,
                       metavar="SPEC", help="fault spec to inject")
    chaos.add_argument("--seeds", type=int, default=5,
                       help="number of consecutive seeds to run")
    chaos.add_argument("--seed", type=int, default=1,
                       help="first seed")
    chaos.add_argument("--txns", type=int, default=40,
                       help="transactions per seed")
    chaos.add_argument("--nodes", type=int, default=3,
                       help="cluster size")
    chaos.add_argument("--system", default="xenic",
                       help="xenic | drtmh | drtmh_nc | fasst | drtmr")
    chaos.add_argument("--check", action="store_true",
                       help="exit nonzero on any invariant violation")
    chaos.add_argument("--trace", action="store_true",
                       help="print the full fault trace of each run")
    _add_jobs_arg(chaos)
    _add_obs_args(chaos)
    trace = sub.add_parser(
        "trace",
        help="run one workload under the observability layer and export a "
             "Chrome trace (docs/OBSERVABILITY.md)")
    _add_run_args(trace)
    trace.add_argument("--trace-out", default="trace.json", metavar="FILE",
                       help="output path for the Chrome trace-event JSON")
    trace.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="also write the metrics JSON dump")
    metrics = sub.add_parser(
        "metrics",
        help="run one workload and print the metrics-registry summary")
    _add_run_args(metrics)
    metrics.add_argument("--metrics-out", default=None, metavar="FILE",
                         help="also write the metrics JSON dump")
    metrics.add_argument("--diff", nargs=2, default=None,
                         metavar=("A.json", "B.json"),
                         help="compare two metrics JSON dumps (no run)")
    metrics.add_argument("--all", dest="diff_all", action="store_true",
                         help="with --diff: include unchanged metrics")
    attrib = sub.add_parser(
        "attrib",
        help="run one observed workload and print the per-phase latency "
             "attribution (docs/OBSERVABILITY.md)")
    _add_run_args(attrib)
    attrib.set_defaults(faults="none")
    attrib.add_argument("--attrib-out", default=None, metavar="FILE",
                        help="also write the attribution JSON dump")
    slo = sub.add_parser(
        "slo",
        help="open-loop SLO sweep: sojourn latency vs offered load "
             "(docs/OBSERVABILITY.md)")
    slo.add_argument("--workload", default="smallbank",
                     choices=("smallbank", "retwis", "tpcc", "tpcc_no"),
                     help="workload to drive")
    slo.add_argument("--system", default="xenic",
                     help="xenic | drtmh | drtmh_nc | fasst | drtmr")
    slo.add_argument("--nodes", type=int, default=3, help="cluster size")
    slo.add_argument("--loads", default="50000,100000,200000,400000,800000",
                     metavar="R1,R2,...",
                     help="offered loads, txn/s per node "
                          "(default: %(default)s)")
    slo.add_argument("--arrival", default="poisson",
                     choices=("poisson", "bursty"),
                     help="arrival process")
    slo.add_argument("--burst-factor", type=float, default=4.0,
                     help="bursty: burst-phase rate multiplier")
    slo.add_argument("--burst-fraction", type=float, default=0.1,
                     help="bursty: fraction of each cycle spent bursting")
    slo.add_argument("--max-inflight", type=int, default=64,
                     help="admission limit per node")
    slo.add_argument("--warmup", type=float, default=150.0,
                     help="warmup before the window, simulated µs")
    slo.add_argument("--window", type=float, default=600.0,
                     help="measurement window, simulated µs")
    slo.add_argument("--seed", type=int, default=7, help="workload seed")
    slo.add_argument("--slo-p99", type=float, default=100.0, metavar="US",
                     help="p99 sojourn budget for knee detection, µs")
    slo.add_argument("--goodput", type=float, default=0.9, metavar="FRAC",
                     help="min achieved/offered fraction inside the SLO")
    slo.add_argument("--json", nargs="?", const="BENCH_slo.json",
                     default=None, metavar="FILE",
                     help="write the sweep report as JSON "
                          "(default file: BENCH_slo.json)")
    slo.add_argument("--attrib", action="store_true",
                     help="rerun the knee point under the observability "
                          "layer and print its latency attribution")
    _add_jobs_arg(slo)
    _add_fault_args(slo)
    return parser


def _run_observed_bench(args) -> Bench:
    """Shared body of the trace/metrics subcommands: one observed run."""
    if args.faults and args.faults.lower() not in ("none", "off", ""):
        set_default_faults(args.faults, args.fault_seed)
    else:
        set_default_faults(None)
    try:
        workload = workload_by_name(args.workload, args.nodes,
                                    seed=args.seed)
        bench = Bench(args.system, workload, n_nodes=args.nodes,
                      seed=args.seed, obs=True,
                      obs_interval_us=args.sample_interval)
        result = bench.measure(args.concurrency, warmup_us=args.warmup,
                               window_us=args.window)
    finally:
        set_default_faults(None)
    print(result)
    return bench


def run_trace_command(args) -> int:
    bench = _run_observed_bench(args)
    fault_trace = bench.fault_plan.trace if bench.fault_plan else None
    path = write_chrome_trace(args.trace_out, bench.observer, fault_trace)
    print("wrote %s (%d events, %d dropped, %d sampler ticks)"
          % (path, len(bench.observer.log), bench.observer.log.dropped,
             bench.observer.sampler.ticks))
    if args.metrics_out:
        print("wrote %s" % write_metrics_json(args.metrics_out,
                                              bench.observer))
    return 0


def run_metrics_command(args) -> int:
    if args.diff:
        import json

        with open(args.diff[0]) as fh:
            a = json.load(fh)
        with open(args.diff[1]) as fh:
            b = json.load(fh)
        print(format_metrics_diff(diff_metrics(a, b),
                                  only_changed=not args.diff_all))
        return 0
    bench = _run_observed_bench(args)
    print_metrics_summary(bench.observer)
    if args.metrics_out:
        print("wrote %s" % write_metrics_json(args.metrics_out,
                                              bench.observer))
    return 0


def run_attrib_command(args) -> int:
    bench = _run_observed_bench(args)
    result = attribute_bench(bench)
    print(result.format())
    if args.attrib_out:
        import json

        with open(args.attrib_out, "w") as fh:
            json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print("wrote %s" % args.attrib_out)
    return 0


def run_slo_command(args) -> int:
    if args.faults and args.faults.lower() not in ("none", "off", ""):
        set_default_faults(args.faults, args.fault_seed)
    try:
        loads = tuple(float(x) for x in args.loads.split(",") if x.strip())
        spec = SloSpec(
            system=args.system, workload=args.workload,
            loads_per_node_s=loads, arrival=args.arrival,
            burst_factor=args.burst_factor,
            burst_fraction=args.burst_fraction,
            max_inflight=args.max_inflight, n_nodes=args.nodes,
            warmup_us=args.warmup, window_us=args.window, seed=args.seed,
        )
        points = run_slo_points(spec, jobs=args.jobs)
        report = slo_report(spec, points, args.slo_p99,
                            min_goodput_frac=args.goodput)
        print(format_slo_report(report))
        if args.json:
            print("wrote %s" % write_results_json(args.json, "slo", report))
        if args.attrib:
            # Rerun one point observed: the knee if there is one, else the
            # lowest offered load, and fold the admission-queue waits into
            # the breakdown as the client_queue phase.
            load = report["knee_offered_per_node_s"]
            if load is None:
                load = min(loads)
            print("\nattributing offered load %.0f txn/s/node ..." % load)
            bench = OpenLoopBench(spec, load, obs=True)
            bench.measure()
            print(attribute_bench(bench,
                                  client_queue=bench.queue_waits).format())
    finally:
        set_default_faults(None)
    return 0


def _flush_obs_traces(trace_out) -> None:
    """Export the traces of every Bench built under --obs/--trace-out."""
    observed = live_observers()
    if not observed:
        return
    if trace_out is None:
        for observer, bench in observed:
            observer.snapshot_counters()
        return
    base, ext = os.path.splitext(trace_out)
    for k, (observer, bench) in enumerate(observed):
        if len(observed) == 1:
            path = trace_out
        else:
            path = "%s-%02d-%s-%s%s" % (base, k, bench.system,
                                        bench.workload.name, ext or ".json")
        fault_trace = bench.fault_plan.trace if bench.fault_plan else None
        write_chrome_trace(path, observer, fault_trace)
        print("wrote %s (%d events)" % (path, len(observer.log)))


def run_chaos_command(args) -> int:
    failures = 0
    obs = bool(args.obs or args.trace_out)
    base, ext = (os.path.splitext(args.trace_out) if args.trace_out
                 else ("", ""))
    seed_kwargs = [
        dict(system=args.system, seed=seed, faults=args.faults,
             n_txns=args.txns, n_nodes=args.nodes, obs=obs)
        for seed in range(args.seed, args.seed + args.seeds)
    ]
    results = run_chaos_seeds(seed_kwargs, jobs=getattr(args, "jobs", 1))
    for result in results:
        seed = result.seed
        print(result)
        if args.trace and result.trace is not None and len(result.trace):
            print(result.trace.format())
        if args.trace_out and result.observer is not None:
            path = (args.trace_out if args.seeds == 1
                    else "%s-seed%d%s" % (base, seed, ext or ".json"))
            write_chrome_trace(path, result.observer, result.trace)
            print("wrote %s (%d events)" % (path, len(result.observer.log)))
        if not result.ok:
            failures += 1
    print("%d/%d seeds clean" % (args.seeds - failures, args.seeds))
    if failures and args.check:
        return 1
    return 0


# Subcommands that are not paper experiments: name -> (list text, runner).
_TOOLS = {
    "chaos": ("randomized fault schedules + invariant checks",
              run_chaos_command),
    "trace": ("observed run -> Chrome trace export", run_trace_command),
    "metrics": ("observed run -> metrics summary (--diff a b)",
                run_metrics_command),
    "attrib": ("observed run -> per-phase latency attribution",
               run_attrib_command),
    "slo": ("open-loop sweep -> latency vs offered load", run_slo_command),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in (None, "list"):
        width = max(len(name) for name in COMMANDS)
        for name, (help_text, _fn) in {**COMMANDS, **_TOOLS}.items():
            print("%-*s  %s" % (width, name, help_text))
        return 0
    if args.command in _TOOLS:
        return _TOOLS[args.command][1](args)
    if getattr(args, "faults", None):
        set_default_faults(args.faults, args.fault_seed)
    if getattr(args, "obs", False) or getattr(args, "trace_out", None):
        set_default_obs(True)
    set_default_jobs(getattr(args, "jobs", 1))
    try:
        if args.command == "all":
            for name, (help_text, fn) in COMMANDS.items():
                print("\n### %s" % help_text)
                result = fn(args)
                if args.json:
                    print("wrote %s" % write_results_json(
                        "BENCH_%s.json" % name, name, result))
            _flush_obs_traces(getattr(args, "trace_out", None))
            return 0
        _help, fn = COMMANDS[args.command]
        result = fn(args)
        if args.json:
            print("wrote %s" % write_results_json(
                "BENCH_%s.json" % args.command, args.command, result))
        _flush_obs_traces(getattr(args, "trace_out", None))
    finally:
        set_default_faults(None)
        set_default_obs(False)
        set_default_jobs(1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
