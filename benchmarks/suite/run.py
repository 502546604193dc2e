#!/usr/bin/env python3
"""The repo's benchmark: simulated results and host cost per transaction.

Three ways to run it (README.md has the details):

  run.py --workload W --seed N --seconds S --trace 0|1
      One run of one workload in this process: the driver's contract.
      Prints one JSON object as the last line of stdout: end-to-end
      metrics with --trace 0, per-layer metrics with --trace 1.

  run.py [--seed N] [--seconds S] [--smoke] [--out FILE]
      The whole benchmark: each workload 3 times untraced and once
      traced, each run a fresh child process, one at a time.  Prints
      every metric by name with its unit; exits non-zero when a run is
      incorrect or two runs disagree on an exact value.

  run.py --compare A.json B.json
      Two result files of the whole benchmark, metric by metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from spec import (END_TO_END, LAYERS, OUT_DIR, PER_LAYER, REPO_ROOT, SUITE_DIR,
                  TABLE, UNITS, WORKLOADS)

_SRC = os.path.join(REPO_ROOT, "src")
if not os.path.isfile(os.path.join(_SRC, "repro", "__init__.py")):
    sys.exit("benchmarks/suite/run.py: no src/repro in the checkout: the "
             "benchmark measures the repo it sits in")
sys.path.insert(0, _SRC)

UNTRACED_RUNS = 3
SMOKE_UNTRACED_RUNS = 2
MACHINE_CHANGED = 0.05   # calibration spins further apart than this


# ---------------------------------------------------------------------------
# one run (the driver's contract)
# ---------------------------------------------------------------------------


def driver_run(args) -> int:
    from harness import run_once

    record = run_once(args.workload, args.seed, args.seconds,
                      traced=bool(args.trace), smoke=args.smoke)
    if args.record:
        with open(args.record, "w") as fh:
            json.dump(record, fh)
    for problem in record["problems"]:
        print("INCORRECT %s: %s" % (args.workload, problem))
    block = record["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["audit"]["attempted"],
        "failed": record["audit"]["failed"],
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in block.items()},
    }))
    return 0 if record["correct"] else 1


# ---------------------------------------------------------------------------
# the whole benchmark
# ---------------------------------------------------------------------------


def _child(name: str, args, traced: bool, tag: str) -> dict:
    """One run in a fresh child process; returns its full record."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "%s.%s.json" % (name, tag))
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(int(traced)), "--record", path]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if not os.path.exists(path):
        sys.stdout.write(done.stdout)
        sys.exit("%s: run %s left no record (exit %d)"
                 % (name, tag, done.returncode))
    with open(path) as fh:
        record = json.load(fh)
    os.remove(path)
    return record


def _exact_values(record: dict) -> dict:
    """Every value of a run that must repeat to the last digit."""
    out = {m.name: record["end_to_end"][m.name] for m in END_TO_END if m.exact}
    out.update({m.name: record["per_layer"][m.name] for m in PER_LAYER
                if m.exact and m.name in record["per_layer"]})
    out["failed"] = record["audit"]["failed"]
    return out


def run_workload(name: str, args) -> dict:
    n = SMOKE_UNTRACED_RUNS if args.smoke else UNTRACED_RUNS
    untraced = [_child(name, args, False, "run%d" % i) for i in range(n)]
    traced = _child(name, args, True, "traced")
    problems = []
    for i, record in enumerate(untraced + [traced]):
        problems += ["run %d: %s" % (i, p) for p in record["problems"]]
    # the traced run simulates the same peak, so it must agree too,
    # except on hw.ref_* which only it computes
    reference = _exact_values(untraced[0])
    for i, record in enumerate(untraced[1:] + [traced], 1):
        for metric, value in _exact_values(record).items():
            if metric in reference and value != reference[metric]:
                problems.append("run %d: %s = %r, run 0 had %r"
                                % (i, metric, value, reference[metric]))
    end_to_end = {
        m.name: statistics.median(r["end_to_end"][m.name] for r in untraced)
        for m in END_TO_END}
    per_layer = dict(traced["per_layer"])
    for m in PER_LAYER:
        if not m.exact and m.name in untraced[0]["per_layer"]:
            per_layer[m.name] = statistics.median(
                r["per_layer"][m.name] for r in untraced)
    rates = [r["end_to_end"]["host_ktxn_per_s"] for r in untraced]
    per_layer["bench.host_spread"] = (
        (max(rates) - min(rates)) / statistics.median(rates))
    attempted = sum(r["audit"]["attempted"] for r in untraced)
    failed = sum(r["audit"]["failed"] for r in untraced)
    return {
        "params": dict(WORKLOADS[name], **untraced[0]["params"]),
        "info": untraced[0]["info"],
        "end_to_end": end_to_end,
        "failed_frac": failed / attempted,
        "per_layer": {m.name: per_layer[m.name] for m in PER_LAYER},
        "samples": {m.name: [r["end_to_end"][m.name] for r in untraced]
                    for m in END_TO_END if not m.exact},
        "traced_self_total_s": sum(
            traced["per_layer"]["%s.self_s" % layer] for layer in LAYERS)
        + traced["per_layer"]["bench.unattributed_self_s"],
        "correct": not problems,
        "problems": problems,
    }


def _git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=SUITE_DIR,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def print_workload(name: str, result: dict) -> None:
    print("== %s ==" % name)
    for m in END_TO_END:
        print("  %-36s %14.6g %-7s (%s is better, bound %g%%)"
              % (m.name, result["end_to_end"][m.name], m.unit, m.better,
                 m.bound * 100))
    print("  %-36s %14.6g %-7s (lower is better, bound 0)"
          % ("failed_frac", result["failed_frac"], "ratio"))
    for m in PER_LAYER:
        print("  %-36s %14.6g %s" % (m.name, result["per_layer"][m.name],
                                     m.unit))
    for problem in result["problems"]:
        print("  INCORRECT: %s" % problem)


def suite_run(args) -> int:
    results = {}
    for name in WORKLOADS:
        results[name] = run_workload(name, args)
        print_workload(name, results[name])
        sys.stdout.flush()
    print("hw.ref_* compare the section-3 hardware model with the paper's "
          "Fig. 2 and Fig. 4; Table 2 and the Fig. 8 ratios are out of "
          "scope (this benchmark runs 3 nodes, the paper 6: unvalidated "
          "at benchmark scale).")
    first = next(iter(results.values()))
    out = {
        "info": dict(first["info"], git_sha=_git_sha()),
        "table": TABLE,
        "workloads": results,
        "correct": all(r["correct"] for r in results.values()),
        "claim": None,
    }
    path = args.out or os.path.join(OUT_DIR, "result.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print("result written to %s; correct: %s" % (path, out["correct"]))
    return 0 if out["correct"] else 1


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    worse = 0
    mismatches = []
    print("%-22s %-20s %12s %12s %8s %7s  %s"
          % ("workload", "metric", "A median", "B median", "delta", "bound",
             "verdict"))
    for name in WORKLOADS:
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            print("%-22s missing from %s" % (name, path_b if wa else path_a))
            worse += 1
            continue
        spin_a = wa["per_layer"]["bench.calib_spin_s"]
        spin_b = wb["per_layer"]["bench.calib_spin_s"]
        machine_changed = abs(spin_b - spin_a) / spin_a > MACHINE_CHANGED
        spread = max(wa["per_layer"]["bench.host_spread"],
                     wb["per_layer"]["bench.host_spread"])
        for m in END_TO_END:
            va, vb = wa["end_to_end"][m.name], wb["end_to_end"][m.name]
            delta = (vb - va) / va
            loss = -delta if m.better == "higher" else delta
            if m.exact and va != vb:
                mismatches.append((name, m.name, va, vb))
            if loss <= m.bound:
                verdict = "ok"
            elif not m.exact and spread > m.bound:
                verdict = "unresolved (host spread %.1f%%)" % (spread * 100)
            else:
                verdict = "worse"
                worse += 1
            if not m.exact and machine_changed:
                verdict += "; machine changed (spin %.4f -> %.4f s)" % (
                    spin_a, spin_b)
            print("%-22s %-20s %12.6g %12.6g %+7.2f%% %6.0f%%  %s"
                  % (name, m.name, va, vb, delta * 100, m.bound * 100,
                     verdict))
        if wa["failed_frac"] != wb["failed_frac"]:
            mismatches.append((name, "failed_frac", wa["failed_frac"],
                               wb["failed_frac"]))
            if wb["failed_frac"] > wa["failed_frac"]:
                worse += 1
        for m in PER_LAYER:
            va, vb = wa["per_layer"][m.name], wb["per_layer"][m.name]
            if m.exact and va != vb:
                mismatches.append((name, m.name, va, vb))
    print("\nexact-value mismatches (simulated metrics and counters): %d"
          % len(mismatches))
    for name, metric, va, vb in mismatches:
        print("  %-22s %-36s %r -> %r" % (name, metric, va, vb))
    print("\n%d worse" % worse)
    return 1 if worse else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=TABLE["default_seed"])
    parser.add_argument("--seconds", type=float,
                        default=TABLE["default_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny windows and tables: checks the plumbing, "
                             "not the numbers")
    parser.add_argument("--record", help="also write the run's full record "
                                         "here (used by the whole-benchmark "
                                         "mode)")
    parser.add_argument("--out", help="result file of the whole benchmark "
                                      "(default benchmarks/suite/out/"
                                      "result.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload:
        return driver_run(args)
    return suite_run(args)


if __name__ == "__main__":
    sys.exit(main())
