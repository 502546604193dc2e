"""Which definitions under ``src/repro`` no entry point calls.

``PYTHONPATH=src python -m tests.reach``, from the repo root, runs every
entry point that is not a test, in this process under ``sys.setprofile``:
``paper --check`` (each row's worker profiled too), the ``chaos``,
``trace``, ``metrics``, ``attrib`` and ``slo`` tools over the five
systems and every fault kind, the examples, and one benchmark run
(``run.py --workload W --smoke``) per workload.  It then reports each
``def`` under ``src/repro`` (nested ones included) that none of them
called and that ``tests/unreached.txt`` does not list, and each listed
one that is now called or no longer defined.  Any of those, an entry
point that exits non-zero, or a paper row that differs from
``BENCH_paper.json`` exits 1 (DESIGN.md, "The reachability probe").

A line of ``tests/unreached.txt`` is ``path::Qualname  reason``; blank
lines and ``#`` lines are skipped.
"""

import ast
import contextlib
import io
import os
import pathlib
import runpy
import sys
import tempfile
import time
from functools import partial

ROOT = pathlib.Path(__file__).resolve().parent.parent
LIST_FILE = ROOT / "tests" / "unreached.txt"
SYSTEMS = ("xenic", "drtmh", "drtmh_nc", "fasst", "drtmr")
EXAMPLES = ("quickstart", "recovery_drill", "latency_breakdown",
            "smallbank_audit", "smartnic_microbench", "tpcc_comparison")
SUITE = ROOT / "benchmarks" / "suite"
SUITE_WORKLOADS = ("xenic_smallbank", "xenic_smallbank_cold", "xenic_tpcc",
                   "drtmh_smallbank", "xenic_smallbank_n32")


# ---------------------------------------------------------------------------
# the compare stage
# ---------------------------------------------------------------------------


def definitions(root=ROOT):
    """``{(file, first line): "src/repro/m.py::Qual.name"}`` for every
    function under ``root/src/repro``, nested ones included.  The first
    line is a code object's ``co_firstlineno``: its first decorator's."""
    defs = {}
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        _walk(ast.parse(path.read_text(), str(path)), "", rel,
              str(path.resolve()), defs)
    return defs


def _walk(node, prefix, rel, filename, defs):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef)):
            qualname = prefix + child.name
            if not isinstance(child, ast.ClassDef):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                defs[filename, first] = "%s::%s" % (rel, qualname)
            _walk(child, qualname + ".", rel, filename, defs)
        else:
            _walk(child, prefix, rel, filename, defs)


def read_list(path=LIST_FILE):
    """``{name: reason}`` from a list file."""
    listed = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            name, _, reason = line.partition(" ")
            listed[name] = reason.strip()
    return listed


def compare(defined, reached, listed):
    """One line per problem: a definition neither reached nor listed, a
    listed one that is reached, unreasoned or not defined."""
    problems = ["%s: no entry point calls it and %s does not list it"
                % (name, LIST_FILE.name)
                for name in sorted(set(defined) - set(reached) - set(listed))]
    for name in sorted(listed):
        if name not in defined:
            problems.append("%s: listed in %s, but no such definition"
                            % (name, LIST_FILE.name))
        elif name in reached:
            problems.append("%s: listed in %s, but an entry point calls it"
                            % (name, LIST_FILE.name))
        elif not listed[name]:
            problems.append("%s: listed in %s with no reason"
                            % (name, LIST_FILE.name))
    return problems


# ---------------------------------------------------------------------------
# the entry points, profiled
# ---------------------------------------------------------------------------


def _called(codes):
    """``(file, first line)`` of each code object under src/repro."""
    src = str(ROOT / "src" / "repro") + os.sep
    out = set()
    for code in codes:
        filename = os.path.realpath(code.co_filename)
        if filename.startswith(src):
            out.add((filename, code.co_firstlineno))
    return out


@contextlib.contextmanager
def _profiled_calls(into):
    """Add to ``into`` what ``_called`` gives for every function the
    block calls; a profile hook already set resumes afterwards."""
    codes = set()

    def hook(frame, event, _arg):
        if event == "call":
            codes.add(frame.f_code)

    outer = sys.getprofile()
    sys.setprofile(hook)
    try:
        yield
    finally:
        sys.setprofile(outer)
        into.update(_called(codes))


def _profiled(fn, item):
    """``fn(item)`` in a fan_out worker, with the calls it made."""
    called = set()
    with _profiled_calls(called):
        result = fn(item)
    return result, called


def _profiled_fan_out(called, fan_out, fn, items, jobs):
    runs = fan_out(partial(_profiled, fn), items, jobs)
    for _result, calls in runs:
        called.update(calls)
    return [result for result, _calls in runs]


def _cli(*argv):
    from repro.__main__ import main

    return "python -m repro " + " ".join(argv), partial(main, list(argv))


def _script(path, *argv):
    def run():
        saved = sys.argv
        sys.argv = [str(path)] + list(argv)
        try:
            runpy.run_path(str(path), run_name="__main__")
        except SystemExit as exc:
            return exc.code
        finally:
            sys.argv = saved
        return 0

    return " ".join(["python", str(path.relative_to(ROOT))] + list(argv)), run


def entry_points(tmp):
    """``(label, run)`` for every entry point; ``run()`` returns its exit
    status.  Output files go to ``tmp``."""
    out = partial(os.path.join, tmp)
    message = "drop=0.02,dup=0.01,delay=0.05:8,reorder=0.02"
    runs = [_cli("paper", "--check", "--jobs", "2"), _cli("list"),
            _cli("chaos", "--seeds", "2", "--txns", "30", "--check"),
            _cli("chaos", "--faults",
                 "drop=0.02,crash=400@1:4000,recovery_delay=150",
                 "--nodes", "4", "--seeds", "1", "--txns", "24", "--trace"),
            _cli("chaos", "--faults", "nic=0.05:2,stall=0.02:2", "--seeds",
                 "1", "--txns", "30", "--check", "--trace-out",
                 out("chaos.json"))]
    for system in SYSTEMS[1:]:
        runs.append(_cli("chaos", "--system", system, "--faults",
                         message + ",rdma=0.05:8,stall=0.02:2", "--seeds",
                         "1", "--txns", "30", "--check"))
    for system in SYSTEMS:
        small = ("--system", system, "--window", "200", "--warmup", "50")
        runs += [_cli("trace", *small, "--trace-out", out(system + ".json"),
                      "--metrics-out", out(system + ".m.json")),
                 _cli("metrics", *small, "--workload", "retwis"),
                 _cli("attrib", *small, "--faults", "rdma=0.05:8,delay=0.05",
                      "--attrib-out", out(system + ".a.json"))]
    runs += [_cli("metrics", "--diff", out("xenic.m.json"),
                  out("drtmh.m.json")),
             _cli("metrics", "--diff", out("xenic.m.json"),
                  out("fasst.m.json"), "--all"),
             _cli("slo", "--loads", "100000,300000,900000", "--window", "300",
                  "--warmup", "80", "--attrib", "--json", out("slo.json"))]
    for system in SYSTEMS[1:]:
        runs.append(_cli("slo", "--system", system, "--workload", "tpcc_no",
                         "--arrival", "bursty", "--loads", "50000,200000",
                         "--window", "200", "--warmup", "50", "--faults",
                         "stall=0.02:2", "--attrib"))
    runs += [_script(ROOT / "examples" / (name + ".py")) for name in EXAMPLES]
    runs += [_script(SUITE / "run.py", "--workload", name, "--smoke",
                     "--trace", "0") for name in SUITE_WORKLOADS]
    return runs


def reach():
    """Run every entry point profiled; returns (the ``(file, first
    line)`` of each src/repro code object called, failed labels)."""
    called, failed = set(), []
    with _profiled_calls(called):  # what an import runs counts too
        import repro.__main__  # noqa: F401
    import repro.bench.parallel as parallel

    # route every fan_out through workers that profile themselves
    patched = [m for m in list(sys.modules.values())
               if getattr(m, "fan_out", None) is parallel.fan_out]
    for module in patched:
        module.fan_out = partial(_profiled_fan_out, called, parallel.fan_out)
    sys.path.insert(0, str(SUITE))
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for label, run in entry_points(tmp):
                start = time.perf_counter()
                text = io.StringIO()
                with contextlib.redirect_stdout(text), \
                        _profiled_calls(called):
                    status = run()
                print("%s: exit %s (%.0f s)" % (
                    label, status, time.perf_counter() - start), flush=True)
                if status:
                    print(text.getvalue())
                    failed.append(label)
    finally:
        sys.path.remove(str(SUITE))
        for module in patched:
            module.fan_out = parallel.fan_out
    return called, failed


def probe():
    called, failed = reach()
    defs = definitions()
    reached = {defs[key] for key in called if key in defs}
    listed = read_list()
    problems = compare(set(defs.values()), reached, listed)
    for line in problems:
        print(line)
    print("%d of %d definitions reached, %d listed; %d problem(s), "
          "%d entry point(s) failed" % (len(reached), len(defs), len(listed),
                                        len(problems), len(failed)))
    return 1 if problems or failed else 0


if __name__ == "__main__":
    from tests import reach

    sys.exit(reach.probe())
