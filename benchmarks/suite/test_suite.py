"""Self-test of the benchmark (``pytest benchmarks/suite -q``; not tier-1).

Runs the whole benchmark twice in ``--smoke`` mode (tiny windows and
tables: the plumbing, not the numbers) and checks what the numbers rest
on: every metric is emitted for every workload, two runs agree exactly
on everything simulated, and the workloads separate the layers.
"""

import json
import os
import subprocess
import sys
import time

import pytest

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, SUITE_DIR)

from spec import END_TO_END, PER_LAYER, REPO_ROOT, TABLE, WORKLOADS  # noqa: E402

RUN = [sys.executable, os.path.join(SUITE_DIR, "run.py")]


def test_benchmark_json_agrees_with_spec():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        described = json.load(fh)
    assert set(described) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert described["paths"] == ["benchmarks/suite"]
    assert described["command"] == ["python3", "benchmarks/suite/run.py"]
    assert described["run_seconds"] == TABLE["default_seconds"]
    assert [w["name"] for w in described["workloads"]] == list(WORKLOADS)
    assert described["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END]
    assert described["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Two whole-benchmark smoke runs: (results, stdouts, seconds)."""
    out = tmp_path_factory.mktemp("suite")
    results, stdouts, seconds = [], [], []
    for tag in ("a", "b"):
        path = str(out / ("%s.json" % tag))
        t0 = time.perf_counter()
        done = subprocess.run(RUN + ["--smoke", "--out", path],
                              capture_output=True, text=True)
        seconds.append(time.perf_counter() - t0)
        assert done.returncode == 0, done.stdout + done.stderr
        with open(path) as fh:
            results.append(json.load(fh))
        stdouts.append(done.stdout)
    return results, stdouts, seconds, out


def test_smoke_is_quick(smoke):
    assert max(smoke[2]) < 60.0


def test_every_metric_for_every_workload_with_its_unit(smoke):
    result, stdout = smoke[0][0], smoke[1][0]
    assert list(result["workloads"]) == list(WORKLOADS)
    for name in WORKLOADS:
        block = stdout.split("== %s ==" % name)[1].split("== ")[0]
        printed = {line.split()[0]: line.split()[2]
                   for line in block.splitlines() if line.startswith("  ")}
        for m in END_TO_END + PER_LAYER:
            assert printed[m.name] == m.unit, (name, m.name)
        assert "failed_frac" in printed
        workload = result["workloads"][name]
        assert set(workload["end_to_end"]) == {m.name for m in END_TO_END}
        assert set(workload["per_layer"]) == {m.name for m in PER_LAYER}
        assert workload["failed_frac"] == 0.0


def test_info_block_and_no_claim(smoke):
    result = smoke[0][0]
    assert {"seed", "queue", "fusion", "compiled", "compiled_available",
            "python", "git_sha"} <= set(result["info"])
    assert list(result)[-1] == "claim" and result["claim"] is None


def test_two_runs_agree_exactly_on_everything_simulated(smoke):
    a, b = smoke[0]
    for name in WORKLOADS:
        wa, wb = a["workloads"][name], b["workloads"][name]
        for m in END_TO_END:
            if m.exact:
                assert wa["end_to_end"][m.name] == wb["end_to_end"][m.name]
        for m in PER_LAYER:
            if m.exact:
                assert wa["per_layer"][m.name] == wb["per_layer"][m.name]
    done = subprocess.run(
        RUN + ["--compare", str(smoke[3] / "a.json"), str(smoke[3] / "b.json")],
        capture_output=True, text=True)
    assert "exact-value mismatches (simulated metrics and counters): 0" \
        in done.stdout


def test_workloads_separate_the_layers(smoke):
    workloads = smoke[0][0]["workloads"]

    def share(name, layer):
        w = workloads[name]
        return w["per_layer"]["%s.self_s" % layer] / w["traced_self_total_s"]

    assert share("drtmh_smallbank", "core") < 0.03
    assert share("xenic_smallbank", "core") > 0.25
    assert share("drtmh_smallbank", "sim") > share("xenic_smallbank", "sim")
    for name, w in workloads.items():
        assert (w["per_layer"]["bench.unattributed_self_s"]
                < 0.05 * w["traced_self_total_s"]), name


def test_single_run_prints_the_contract_line():
    done = subprocess.run(
        RUN + ["--workload", "xenic_tpcc", "--seed", "2", "--seconds", "1",
               "--trace", "1", "--smoke"], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert list(line["metrics"]) == [m.name for m in PER_LAYER]
    for m in PER_LAYER:
        assert line["metrics"][m.name]["unit"] == m.unit
