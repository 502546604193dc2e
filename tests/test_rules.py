"""The design rules, one test each: the scans of the checkout that must
find nothing, and the ids of the tests that state the rule.

A rule's scans are ``git grep`` argument lists, run as written in the
repo root (exit 1 means clean), plus the few checks grep cannot make: an
event or ``yield`` in ``core/txn.py`` outside ``run_transaction``, a
name defined exactly once, a file that must not exist.  Every scan
leaves this module out, since it holds the patterns.  A rule's ids
already run in the suite; ``test_every_rule_id_collects`` only checks
that each still names a test, so renaming or deleting one fails loudly.
A rule that cannot run (no ``git``) fails; none skips.

To add a rule, add a ``Rule`` to ``RULES`` with an ``example`` line for
each scan (the teeth test plants it) and a test that calls ``check``.
"""

import re
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SELF = ":!tests/test_rules.py"


def git_grep(root, *args):
    """The lines ``git grep <args>`` prints in ``root``, this module left
    out.  A tree that is not a git checkout (a source archive) is
    searched as files on disk, less what ``.gitignore`` lists."""
    where = [] if (root / ".git").exists() else ["--no-index",
                                                 "--exclude-standard"]
    proc = subprocess.run(["git", "grep", *where, *args, SELF], cwd=root,
                          capture_output=True, text=True, encoding="utf-8",
                          errors="replace")
    assert proc.returncode in (0, 1), proc.stderr
    return proc.stdout.splitlines()


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as f:
        f.write(text + "\n")


class Grep:
    """``git grep <args>``: every line it prints breaks the rule.
    ``example`` is a line its pattern matches."""

    def __init__(self, *args, example):
        self.args = args
        self.example = example

    def __call__(self, root):
        return git_grep(root, *self.args)

    def paths(self):
        return [spec for spec in self.args[self.args.index("--") + 1:]
                if not spec.startswith(":!")]

    def plant(self, root, tag):
        """Write ``example`` into each path the scan covers (a new file in
        a directory); return the paths written."""
        planted = []
        for spec in self.paths():
            path = spec if Path(spec).suffix else "%s/planted_%s.py" % (
                spec, tag)
            _write(root / path, self.example)
            planted.append(path)
        return planted


class Count(Grep):
    """``git grep <args>`` must print exactly ``expected`` lines."""

    def __init__(self, expected, *args, example):
        super().__init__(*args, example=example)
        self.expected = expected

    def __call__(self, root):
        hits = git_grep(root, *self.args)
        if len(hits) == self.expected:
            return []
        return ["git grep %s: %d lines, not %d" % (
            " ".join(self.args), len(hits), self.expected)] + hits

    def plant(self, root, tag):
        # one file too many
        return self._files(root, "planted_%s" % tag, self.expected + 1)

    def allow(self, root):
        self._files(root, "allowed", self.expected)

    def _files(self, root, name, n):
        planted = ["%s/%s_%d.py" % (self.paths()[0], name, i)
                   for i in range(n)]
        for path in planted:
            _write(root / path, self.example)
        return planted


# A line belongs to the last `def` (at column 0 or 4) or `class` at or
# above it.
ENCLOSING = re.compile(r"^(    )?def |^class ")
ONLY_IN = re.compile(r"def run_transaction\(")


class OutsideRunTransaction:
    """The lines of ``path`` matching ``pattern`` whose enclosing ``def``
    or ``class`` is not ``run_transaction``."""

    def __init__(self, pattern, path, example):
        self.pattern = re.compile(pattern)
        self.path = path
        self.example = example

    def __call__(self, root):
        header = ""
        hits = []
        text = (root / self.path).read_text(encoding="utf-8")
        for n, line in enumerate(text.splitlines(), 1):
            if ENCLOSING.search(line):
                header = line
            if self.pattern.search(line) and not ONLY_IN.search(header):
                hits.append("%s:%d: %s" % (self.path, n, line))
        return hits

    def plant(self, root, tag):
        _write(root / self.path, "def planted_%s():\n    %s" % (
            tag, self.example))
        return [self.path]

    def allow(self, root):
        _write(root / self.path, "class Coordinator:\n"
               "    def run_transaction(self, spec):\n"
               "        %s" % self.example)


class Absent:
    """``path`` must not exist."""

    def __init__(self, path):
        self.path = path

    def __call__(self, root):
        return [self.path] if (root / self.path).exists() else []

    def plant(self, root, tag):
        _write(root / self.path, "")
        return [self.path]


# A rule: the scans that must find nothing, and the ids of the tests
# that state it.
Rule = namedtuple("Rule", "scans ids")


EVENT_LINE = (r"(^|[^A-Za-z_])Event\(|sim\.event\(|\(Event\)|Event\.__init__"
              r"|\._cb0([^A-Za-z0-9_]|$)|add_callback\(")
YIELD_LINE = r"(^|[^A-Za-z_])yield([^A-Za-z_]|$)"

RULES = {
    "engine": Rule([
        Grep("-nE", r"\b(AllOf|all_of|_Fetches|_Gather|_COMPACT_MIN_CANCELLED"
             r"|_START_NOW)\b|\.run_wall\(|cores\.run\(",
             "--", "src", "tests", example="done = AllOf(sim, events)"),
        Grep("-nE", r"CalendarEventQueue|HeapEventQueue|EventQueue"
             r"|_DENSE_BUCKET|_SPARSE_ACTS|_TARGET_LOAD|_REBALANCE_MIN"
             r"|_rebalance|pop_min|def peek_time|\.peek_time|drain_until"
             r"|Simulator\(queue=",
             "--", "src", "tests", "examples",
             example="sim = Simulator(queue=queue)"),
    ], [
        "tests/test_golden_digest.py",
        "tests/test_event_queue.py::test_random_streams_match_sorted_reference",
        "tests/test_sim_hotpath.py::test_events_scheduled_per_op_is_exact",
    ]),
    "continuation": Rule([
        Grep("-nE", r"\bTimeout\(|\.timeout\(",
             "--", "src/repro/core", "src/repro/baselines", "src/repro/hw",
             "src/repro/obs", "src/repro/sim/link.py",
             "src/repro/sim/faults.py",
             example="yield sim.timeout(1.0)"),
        Grep("-nE", r"_RIDING|\._riders\b", "--", "src", "tests",
             example="event._riders.append(fn)"),
    ], [
        "tests/test_event_queue.py::test_bucket_rules_scripted_schedule",
        "tests/test_gc_quiet.py::test_steady_state_containers_do_not_grow",
        "tests/test_batching_link.py::test_batching_link_wire_aimed_trace_pinned",
        "tests/test_peak_pins.py::test_baseline_simulated_digests_pinned",
    ]),
    "model_boundary": Rule([
        Grep("-nE", r"\bEvent\(|sim\.event\(|\(Event\)|Event\.__init__"
             r"|\._cb0\b|add_callback\(",
             "--", "src/repro/core", "src/repro/baselines", "src/repro/hw",
             "src/repro/obs", "src/repro/sim/link.py",
             "src/repro/sim/faults.py", "src/repro/sim/resources.py",
             ":!src/repro/core/txn.py",
             example="done = Event(self.sim)"),
        OutsideRunTransaction(EVENT_LINE, "src/repro/core/txn.py",
                              example="done = Event(self.sim)"),
    ], [
        "tests/test_peak_pins.py::test_peak_run_builds_one_event_per_transaction",
        "tests/test_peak_pins.py::test_baseline_peak_run_builds_one_event_per_transaction",
        "tests/test_golden_digest.py::test_micro_benchmarks_digest_pinned",
        "tests/test_sim_hotpath.py::test_events_scheduled_per_op_is_exact",
    ]),
    "participant": Rule([
        Grep("-nE", r"lock_owner|VersionedObject\(",
             "--", "src/repro/core", "src/repro/baselines",
             example="obj = VersionedObject(key)"),
        Grep("-n", r"\._meta\b\|\._counters\b",
             "--", "src/repro/core/protocol.py",
             "src/repro/core/nic_handlers.py",
             example="meta = index._meta[key]"),
        Count(1, "-lE", r"^ABORT_BACKOFF_US *=", "--", "src",
              example="ABORT_BACKOFF_US = 1.5"),
    ], []),
    "loaded_once": Rule([
        Grep("-n", "OrderedDict", "--", "src/repro/store",
             example="cache = OrderedDict()"),
        Grep("-nE", r"\.copy\(\) for ", "--", "src/repro/store",
             example="objs = [o.copy() for o in objs]"),
    ], [
        "tests/test_bulk_load.py::test_replicas_share_no_object",
        "tests/test_bulk_load.py::test_each_loaded_object_is_held_once",
        "tests/test_store_nic_index.py::test_flat_cache_matches_the_ordered_dict_model",
        "tests/test_bulk_load.py::test_smallbank_load_by_shard_equals_customer_order",
        "tests/test_bulk_load.py::test_bulk_prewarm_equals_per_key_installs",
        "tests/test_bulk_load.py::test_a_structural_write_builds_only_the_written_layout",
        "tests/test_bulk_load.py::test_clone_copies_the_map_of_an_unbuilt_table",
        "tests/test_bulk_load.py::test_a_warm_run_builds_no_layout",
        "tests/test_bulk_load.py::test_a_cold_run_builds_its_primaries_layouts_in_low_load",
        "tests/test_sim_rng_stats.py::test_stream_seed_is_the_hashlib_sha256_derivation",
        "tests/test_bench_runner.py::test_a_run_imports_no_numpy",
    ]),
    "fault_plan": Rule([
        Grep("-nE", r"_one_sided_proc|_rpc_proc|_transient_failures"
             r"|_host_run_logic|_host_logic_fused|stepwise_fallbacks",
             "--", "src", "tests", "docs", ".claude",
             example="yield from self._rpc_proc(req)"),
    ], [
        "tests/test_peak_pins.py::test_a_plan_that_never_fires_is_the_bare_run",
        "tests/test_peak_pins.py::test_baseline_never_firing_plan_keeps_the_digest",
        "tests/test_sim_hotpath.py::test_events_scheduled_per_op_is_exact[rdma_read_never_fires]",
        "tests/test_sim_hotpath.py::test_events_scheduled_per_op_is_exact[rpc_never_fires]",
    ]),
    "no_generator": Rule([
        Grep("-nE", r"sim\.(spawn|start)\(|_launch\(",
             "--", "src/repro/core", "src/repro/baselines",
             example="sim.spawn(self._handler())"),
        Grep("-nE", r"\byield\b",
             "--", "src/repro/core", "src/repro/baselines",
             ":!src/repro/core/txn.py",
             example="    yield done"),
        Grep("-nE", r"\byield\b|sim\.spawn\(",
             "--", "src/repro/sim/link.py", "src/repro/sim/faults.py",
             "src/repro/hw", "src/repro/obs",
             example="    yield done"),
        OutsideRunTransaction(YIELD_LINE, "src/repro/core/txn.py",
                              example="yield done"),
        Absent("src/repro/obs/interpose.py"),
    ], [
        "tests/test_obs.py::test_golden_cluster_spans_pinned",
        "tests/test_peak_pins.py::test_peak_run_spawns_no_process_per_commit",
        "tests/test_protocol_edge_cases.py::test_multihop_after_failover_counts_a_promoted_shard_as_local",
        "tests/test_peak_pins.py::test_baseline_digests_pinned",
        "tests/test_peak_pins.py::test_baseline_digest_observer_neutral",
        "tests/test_peak_pins.py::test_baseline_peak_run_spawns_no_process_per_commit",
        "tests/test_sim_hotpath.py::test_events_scheduled_per_op_is_exact[baseline_commit_path]",
        "tests/test_participant.py::test_every_system_retries_on_the_shared_schedule",
        "tests/test_golden_digest.py::test_micro_benchmarks_digest_pinned",
        "tests/test_sim_hotpath.py::test_events_scheduled_per_op_is_exact[commit_path]",
        "tests/test_hw_network.py::test_smartnic_routes_wire_messages_to_handler",
    ]),
    "perf_instrument": Rule([
        Grep("-nE", r"repro perf|BENCH_simperf|bench\.perf|bench_wallclock",
             "--", "src", "tests", "docs", "README.md", ".claude",
             "benchmarks", ":!benchmarks/suite",
             example="python -m repro perf"),
    ], []),
    "paper_path": Rule([
        Grep("-nE", r"REPRO_FULL|benchmark-only|pytest-benchmark|quick="
             r"|--full\b|os\.environ|getenv",
             "--", "src", "tests", "examples", "docs", "README.md",
             "EXPERIMENTS.md", "DESIGN.md", "pyproject.toml", ".claude",
             "benchmarks", ":!benchmarks/suite",
             example="scale = os.environ.get('REPRO_FULL')"),
    ], [
        "tests/test_paper_claims.py",
    ]),
    "no_process_wide_setting": Rule([
        Grep("-nE", r"set_default_(faults|obs|jobs)|live_observers"
             r"|default_jobs|_DEFAULT_(FAULTS|OBS|JOBS)|SweepSpec|run_sweeps"
             r"|run_chaos_seeds|\brun_point\b|_flush_obs_traces",
             "--", "src", "tests", "examples", "docs", "README.md",
             "DESIGN.md", ".claude",
             example="set_default_jobs(4)"),
        Grep("-nE", r"^\s*global\s+[A-Za-z_]\w*(\s*,\s*[A-Za-z_]\w*)*\s*(#.*)?$",
             "--", "src",
             example="    global _JOBS  # process-wide"),
        Count(1, "-n", "ProcessPoolExecutor", "--", "src",
              example="from concurrent.futures import ProcessPoolExecutor"),
    ], [
        "tests/test_parallel.py",
        "tests/test_slo.py::test_spec_faults_reach_every_point",
        "tests/test_chaos_faults.py::test_malformed_faults_is_a_usage_error",
        "tests/test_hw_rx_and_cli.py::test_experiment_commands_take_only_json",
    ]),
    "plain_messages": Rule([
        Grep("-nE", r"take_request|take_response|recycle_request"
             r"|recycle_response|_request_pool|_response_pool|_POOL_MAX"
             r"|_REQ_SIZERS|_RESP_SIZERS|_req_size_|_resp_size_",
             "--", "src", "tests", "examples",
             example="req = take_request(kind)"),
    ], [
        "tests/test_core_runtime_messages.py::test_request_size_counts_keys_and_values",
        "tests/test_core_runtime_messages.py::test_response_size_counts_payloads",
    ]),
    "cost_model": Rule([
        Grep("-nE", r"^_?[A-Z][A-Z0-9_]*_US *= *[0-9(]",
             "--", "src/repro", ":!src/repro/hw/params.py",
             example="_LOCAL_HOP_US = 0.4"),
        Grep("-nE", r"host_rpc_stack_us|host_rpc_handle_us=|_record_bytes"
             r"|RPC_HEADER|nic_per_key_us|host_per_key_us|k_slack=config"
             r"|with_crash",
             "--", "src", "tests", "examples", "docs",
             example="size = RPC_HEADER + n"),
    ], [
        "tests/test_hw_params.py",
        "tests/test_hw_network.py::test_node_pcie_channel_serializes_at_its_bundles_bandwidth",
        "tests/test_peak_pins.py::test_fault_free_commits_release_every_lock",
    ]),
}

# Back to back, the first test's c=64 clusters are collected inside the
# second's DEBUG_SAVEALL window; a core released while the collector
# closes their generators would resume them there and show up as leaked
# processes.  The suite puts other files between the two.
DROPPED_SIMULATION = [
    "tests/test_peak_pins.py::test_peak_digest_pinned",
    "tests/test_sim_hotpath.py::test_finished_processes_need_no_cycle_collector",
]


def pytest_child(*args):
    """A pytest run over ``args`` in a child interpreter, which inherits
    this one's environment.  The repo's ``-q`` default is cleared, so a
    ``-q`` here prints node ids and the summary line."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-o", "addopts=",
         "-p", "no:cacheprovider", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600)


def check(rule):
    hits = [hit for scan in RULES[rule].scans for hit in scan(ROOT)]
    assert hits == []


def test_the_engine_keeps_only_what_the_models_use():
    """Every fan-out joins through Gather, the one join, and a core job
    is a callback chain (docs/PERFORMANCE.md, "Removed: engine features
    no model used"): AllOf or the two counting joins, or the generator
    core job, coming back fails the first scan.  The lazy-deletion and
    immediate-start constants are in it too: they are not definitions,
    so the reachability probe cannot see them.  The event queue is one
    heap on the Simulator: the calendar queue, the queue protocol and
    the Simulator(queue=) argument coming back fail the second."""
    check("engine")


def test_every_queue_entry_is_a_continuation():
    """A chain schedules its next stage with call_at / call_after, which
    push fn(arg) and build no event; an Event exists only where a
    process yields it (docs/PERFORMANCE.md, "Continuation entries").
    The queue holds one entry per instant (docs/PERFORMANCE.md, "The
    event queue").  A Timeout built for a model stage, or the per-event
    rider list, coming back fails the scans."""
    check("continuation")


def test_no_event_at_the_model_boundary():
    """Every model call that waits takes a continuation then(value)
    (docs/PERFORMANCE.md, "No event below the client").  An event
    built, subclassed or waited on in a model fails the first scan;
    run_transaction builds the one event its client yields, and an
    event anywhere else in core/txn.py fails the second."""
    check("model_boundary")


def test_the_participant_is_written_once():
    """Lock words and host objects are touched through the store's verbs
    (docs/PROTOCOL.md, "Participant operations"): an open-coded lock
    loop, object construction or reach into a private table coming back
    to the protocol code fails here, as does a second definition of
    ABORT_BACKOFF_US."""
    check("participant")


def test_each_loaded_object_is_held_once():
    """Replicas share the loaded objects until each writes a key, and
    the NIC cache keeps bare values in a plain dict (docs/PERFORMANCE.md,
    "Cluster build"): per-replica object copies or the OrderedDict cache
    coming back fails here."""
    check("loaded_once")


def test_a_fault_plan_moves_the_schedule_only_where_it_fires():
    """A fault draw is a stage of the one chain each site runs
    (docs/FAULTS.md): a generator twin picked because a plan is attached
    coming back fails the scan."""
    check("fault_plan")


def test_no_generator_in_the_models():
    """Every coordinator and every NIC-side handler is a callback chain
    (docs/PROTOCOL.md, "Handler forms"), as are the batching links'
    drain loop, a crash schedule, a core job and the metrics sampler.
    The only generator left is run_transaction.  A generator, a spawned
    or started process or the interposition module coming back fails
    the scans."""
    check("no_generator")


def test_one_perf_instrument():
    """The benchmark suite (BENCHMARK.json, docs/PERFORMANCE.md) is the
    only wall-clock instrument: the removed harness, its command, its
    trajectory file or its standalone script coming back fails here."""
    check("perf_instrument")


def test_one_path_for_the_papers_numbers():
    """Each experiment has one configuration, kept in its function, and
    `python -m repro paper` is the one way to run them all.  The
    pytest-benchmark files, their scale switch, the CLI's scale flags or
    an environment variable read by the code coming back fails here."""
    check("paper_path")


def test_the_harness_holds_no_process_wide_setting():
    """A Bench takes its fault plan and observer as constructor
    arguments, fan_out is the one process pool, and an experiment
    command takes only --json (docs/PERFORMANCE.md, "Parallel runs"): a
    process-wide default, its setter, the sweep spec, a `global`
    statement or a second pool coming back fails here."""
    check("no_process_wide_setting")


def test_messages_are_plain_values():
    """A Request or Response is built for its one message and freed by
    reference count, and one sizer per direction counts its wire bytes
    (src/repro/core/messages.py): the free lists, their take / recycle
    calls or the per-kind sizer tables coming back fail here."""
    check("plain_messages")


def test_one_home_for_the_cost_model():
    """Every modelled cost is defined once, in src/repro/hw/params.py
    (docs/SIMULATOR.md): a *_US constant defined in another module, or a
    removed duplicate or unused knob coming back, fails here."""
    check("cost_model")


def test_a_dropped_simulation_stays_dead():
    proc = pytest_child("-q", "-rsxX", *DROPPED_SIMULATION)
    assert proc.returncode == 0, proc.stdout[-3000:]
    # every case passed: none skipped, xfailed or deselected
    assert re.match(r"\d+ passed in ", proc.stdout.splitlines()[-1]), \
        proc.stdout


def test_every_rule_id_collects():
    ids = sorted({i for rule in RULES.values() for i in rule.ids}
                 | set(DROPPED_SIMULATION))
    proc = pytest_child("--collect-only", "-q", *ids)
    assert proc.returncode == 0, proc.stdout[-3000:]
    collected = proc.stdout.splitlines()
    missing = [i for i in ids if not any(
        line == i or line.startswith((i + "::", i + "["))
        for line in collected)]
    assert missing == []


def git_tree(root):
    subprocess.run(["git", "init", "-q"], cwd=root, check=True)
    subprocess.run(["git", "add", "-A"], cwd=root, check=True)


@pytest.mark.parametrize("rule", sorted(RULES))
def test_every_scan_reports_a_planted_violation(rule, tmp_path):
    planted = [scan.plant(tmp_path, i)
               for i, scan in enumerate(RULES[rule].scans)]
    git_tree(tmp_path)
    assert planted
    for scan, paths in zip(RULES[rule].scans, planted):
        reported = {hit.split(":", 1)[0] for hit in scan(tmp_path)}
        assert reported >= set(paths), paths


@pytest.mark.parametrize("rule", sorted(
    rule for rule in RULES
    if any(hasattr(scan, "allow") for scan in RULES[rule].scans)))
def test_what_a_rule_allows_is_not_reported(rule, tmp_path):
    allowing = [scan for scan in RULES[rule].scans if hasattr(scan, "allow")]
    for scan in allowing:
        scan.allow(tmp_path)
    git_tree(tmp_path)
    for scan in allowing:
        assert scan(tmp_path) == []


def test_a_tree_without_git_is_scanned_on_disk(tmp_path):
    paths = RULES["paper_path"].scans[0].plant(tmp_path, 0)
    _write(tmp_path / "src" / "__pycache__" / "planted.pyc",
           "os.environ")
    _write(tmp_path / ".gitignore", "__pycache__/")
    hits = RULES["paper_path"].scans[0](tmp_path)
    assert {hit.split(":", 1)[0] for hit in hits} == set(paths)
