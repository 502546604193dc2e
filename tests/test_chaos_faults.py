"""Chaos-driven correctness tests for the fault-injection layer.

Three families of guarantees:

* **property** — under message drop/delay/dup/reorder schedules, every
  transaction resolves (no limbo) and the committed history is
  serializable (commuting increments must sum exactly);
* **recovery** — crashing a primary at a randomized instant mid-workload,
  the RecoveryManager resolves every in-flight transaction by the
  log-reached-all-surviving-backups rule, releases the rebuilt locks, and
  the promoted shard serves new transactions;
* **determinism** — a seed fully determines the run: same-seed reruns
  produce byte-identical fault traces and identical commit/abort counts.
"""

import hashlib
import json

import pytest

from repro.bench.chaos import DEFAULT_CHAOS_FAULTS, run_chaos
from repro.core import RecoveryManager, TxnSpec, XenicCluster, XenicConfig
from repro.sim import RngStream, Simulator
from repro.sim.faults import CrashEvent, FaultPlan, FaultSpec

from .pins import pinned

# ---------------------------------------------------------------------------
# spec parsing
# ---------------------------------------------------------------------------


def test_fault_spec_parse_grammar():
    spec = FaultSpec.parse("drop=0.02,dup=0.01,delay=0.05:8,crash=800@1:2000")
    assert spec.drop == 0.02
    assert spec.dup == 0.01
    assert spec.delay == 0.05 and spec.delay_mean_us == 8.0
    assert spec.crashes == (CrashEvent(800.0, 1, 2000.0),)


def test_fault_spec_parse_rejects_unknown_and_bad_probs():
    with pytest.raises(ValueError):
        FaultSpec.parse("gremlins=0.5")
    with pytest.raises(ValueError):
        FaultSpec.parse("drop=1.5")
    with pytest.raises(ValueError):
        FaultSpec.parse("drop")


def test_fault_spec_crash_without_restart():
    spec = FaultSpec.parse("crash=100@2,recovery_delay=50")
    assert spec.crashes == (CrashEvent(100.0, 2, None),)
    assert spec.recovery_delay_us == 50.0


# ---------------------------------------------------------------------------
# satellite 1: property test — no limbo + serializability under message
# faults, across 20+ seeds
# ---------------------------------------------------------------------------

PROPERTY_SEEDS = range(1, 23)


@pytest.mark.parametrize("seed", PROPERTY_SEEDS)
def test_chaos_no_limbo_and_serializable(seed):
    """Every transaction commits or aborts-and-retries to commit (no
    limbo), and the final state equals the reference ledger, under a
    drop+dup+delay+reorder schedule."""
    result = run_chaos(seed=seed, faults=DEFAULT_CHAOS_FAULTS, n_txns=30)
    assert result.ok, "\n".join(result.violations)
    assert result.limbo == 0
    assert result.commits == 30


def test_chaos_actually_injects_faults():
    """The 20-seed sweep is vacuous if the plan never fires; check the
    aggregate fault volume across the same seeds."""
    total = {}
    for seed in PROPERTY_SEEDS:
        trace = run_chaos(seed=seed, faults=DEFAULT_CHAOS_FAULTS,
                          n_txns=30).trace
        for kind, n in trace.counts.items():
            total[kind] = total.get(kind, 0) + n
    for kind in ("drop", "dup", "delay", "reorder"):
        assert total.get(kind, 0) > 0, "no %s faults across all seeds" % kind


def test_chaos_baseline_system_under_rdma_faults():
    result = run_chaos(system="drtmh", seed=11,
                       faults="rdma=0.05:8,stall=0.02:2", n_txns=25)
    assert result.ok, "\n".join(result.violations)
    assert result.trace.counts.get("rdma-fail", 0) > 0


# (system, faults, seed) of the pinned chaos runs, 40 transactions each.
# The baselines' RDMA retries and link stalls and Xenic's link stalls are
# drawn inside the fused chains at the instants a process would draw
# them; Xenic's NIC-core stalls are drawn when an inbound dispatch takes
# its core, once per charge it holds.
CHAOS_RUNS = {"%s-%s-%d" % (system, faults.split("=")[0], seed):
              (system, faults, seed)
              for system, faults in (("drtmh", "rdma=0.05,stall=0.02"),
                                     ("fasst", "rdma=0.05,stall=0.02"),
                                     ("drtmr", "rdma=0.05,stall=0.02"),
                                     ("xenic", "stall=0.05"),
                                     ("xenic", "nic=0.2"))
              for seed in (1, 2)}


@pytest.mark.parametrize("run", CHAOS_RUNS)
def test_chaos_outputs_pinned(run):
    """Chaos runs under link, RDMA and NIC-core faults reproduce their
    pinned fault trace, counts and committed values exactly, with no
    limbo and no violation: the pin ``chaos_faults.<run>`` is (fault-trace
    digest, commits, aborts, final-values digest), digests cut to 16 hex
    digits."""
    system, faults, seed = CHAOS_RUNS[run]
    result = run_chaos(system=system, seed=seed, faults=faults)
    values = json.dumps(sorted(result.final_values.items()))
    pinned("chaos_faults." + run,
           (result.trace.digest()[:16], result.commits, result.aborts,
            hashlib.sha256(values.encode()).hexdigest()[:16]))
    assert result.limbo == 0
    assert result.violations == []


def test_chaos_crash_on_baseline_rejected():
    with pytest.raises(ValueError):
        run_chaos(system="fasst", seed=1, faults="crash=100@1", n_txns=5)


# ---------------------------------------------------------------------------
# satellite 2: recovery chaos — crash a primary at a randomized instant
# ---------------------------------------------------------------------------

RECOVERY_SEEDS = range(1, 9)
VICTIM = 1


def _recovery_chaos(seed):
    """Run an increment workload against shard VICTIM, crash its primary
    at a seed-randomized instant, drive recovery manually (so the
    surviving-log state can be snapshotted at the crash), and return
    (cluster, plan, report, shard_keys)."""
    rng = RngStream(seed, "recovery-chaos")
    sim = Simulator()
    # slow workers widen the appended-but-unacked log window, so crashes
    # reliably catch transactions mid-commit
    cluster = XenicCluster(
        sim, 4,
        config=XenicConfig(replication_factor=3, worker_apply_us=5.0),
        keys_per_shard=128, value_size=16,
    )
    shard_keys = [k for k in range(64) if cluster.shard_of(k) == VICTIM][:8]
    for k in shard_keys:
        cluster.load_key(k, value=0)
    cluster.start()
    rm = RecoveryManager(cluster)
    plan = FaultPlan(FaultSpec(), RngStream(seed, "faults"))
    plan.install(cluster, recovery=rm)

    def txn_proc(coord, key, amount, start):
        yield sim.timeout(start)
        spec = TxnSpec(
            read_keys=[key], write_keys=[key],
            logic=lambda r, s, k=key, a=amount: {k: (r[k] or 0) + a})
        yield from cluster.protocols[coord].run_transaction(spec)

    coords = [0, 2, 3]  # never the victim
    for i in range(24):
        sim.spawn(txn_proc(coords[rng.randrange(3)],
                           shard_keys[rng.randrange(len(shard_keys))],
                           rng.randint(1, 9),
                           rng.uniform(0.0, 120.0)),
                  name="rc-txn-%d" % i)

    crash_at = rng.uniform(20.0, 200.0)
    out = {}

    def crasher():
        yield sim.timeout(crash_at)
        plan.crash_node(VICTIM)
        # snapshot the surviving unacked LOG records *at the crash
        # instant* (no yields until recover_shard, so this is atomic in
        # simulated time) and cross-check the resolution rule
        survivors = [n for n in cluster.nodes[VICTIM].backups_of(VICTIM)
                     if n not in cluster.failed]
        pending = {}
        for nid in survivors:
            for rec in cluster.nodes[nid].log._records:
                if rec.shard == VICTIM and rec.kind == "log" \
                        and not rec.acked:
                    pending.setdefault(rec.txn_id, set()).add(nid)
        out["pending"] = pending
        out["survivors"] = survivors
        out["report"] = rm.recover_shard(VICTIM)

    sim.spawn(crasher(), name="rc-crash")
    sim.run(until=50_000.0)

    report = out["report"]
    survivors = set(out["survivors"])
    pending = out["pending"]
    expected_commit = {t for t, got in pending.items() if got >= survivors}
    # the log-reached-all-surviving-backups rule, against the snapshot
    assert set(report.recovering_txns) == set(pending)
    assert set(report.committed) == expected_commit
    assert set(report.aborted) == set(pending) - expected_commit
    return sim, cluster, plan, report, shard_keys


@pytest.mark.parametrize("seed", RECOVERY_SEEDS)
def test_recovery_chaos_resolves_and_serves(seed):
    sim, cluster, plan, report, shard_keys = _recovery_chaos(seed)
    # promotion happened and the locks rebuilt during recovery are gone
    new_primary = cluster.primary_node_id(VICTIM)
    assert new_primary != VICTIM
    assert new_primary == report.new_primary
    index = cluster.nodes[new_primary].index_for(VICTIM)
    for k in shard_keys:
        assert not index.is_locked(k), "key %d still locked" % k
    # the promoted shard serves a fresh transaction
    k = shard_keys[0]
    spec = TxnSpec(read_keys=[k], write_keys=[k],
                   logic=lambda r, s: {k: "post-recovery"})
    proc = sim.spawn(cluster.protocols[0].run_transaction(spec))
    txn = sim.run_until_event(proc, limit=sim.now + 1e6)
    assert txn.status.value == "committed"
    sim.run()  # the commit is reported before the COMMIT phase applies
    assert cluster.read_committed_value(k) == "post-recovery"


def test_recovery_chaos_catches_inflight_txns():
    """The randomized crash instants must actually interrupt commits in
    at least one seed — otherwise the resolution-rule assertions above
    never exercise a non-empty recovery."""
    caught = 0
    for seed in RECOVERY_SEEDS:
        _sim, _cluster, _plan, report, _keys = _recovery_chaos(seed)
        caught += len(report.recovering_txns)
    assert caught > 0


def test_scheduled_crash_with_restart_rejoins():
    """A spec-scheduled crash auto-recovers the shard and the restarted
    node re-registers as a member."""
    result = run_chaos(seed=6, faults="drop=0.02,crash=300@1:5000",
                       n_txns=25, n_nodes=4)
    trace = result.trace
    assert trace.counts.get("crash") == 1
    assert trace.counts.get("recover", 0) >= 1
    assert trace.counts.get("restart") == 1


# ---------------------------------------------------------------------------
# satellite 3: determinism regression
# ---------------------------------------------------------------------------


def test_same_seed_reproduces_trace_and_counts():
    """Two same-seed runs are bit-identical: byte-equal fault traces and
    equal commit/abort totals."""
    a = run_chaos(seed=42, faults=DEFAULT_CHAOS_FAULTS, n_txns=30)
    b = run_chaos(seed=42, faults=DEFAULT_CHAOS_FAULTS, n_txns=30)
    assert a.trace.format() == b.trace.format()
    assert a.trace.digest() == b.trace.digest()
    assert (a.commits, a.aborts) == (b.commits, b.aborts)
    assert a.sim_time_us == b.sim_time_us


def test_different_seeds_diverge():
    a = run_chaos(seed=42, faults=DEFAULT_CHAOS_FAULTS, n_txns=30)
    b = run_chaos(seed=43, faults=DEFAULT_CHAOS_FAULTS, n_txns=30)
    assert a.trace.format() != b.trace.format()


def test_bench_default_faults_hook():
    """``Bench(faults=(spec, seed))`` installs that plan on the run, and
    a Bench built without one carries none."""
    from repro.bench import Bench
    from repro.workloads import Smallbank

    def wl():
        return Smallbank(3, accounts_per_server=1500,
                         hot_keys_fraction=0.25)

    bench = Bench("xenic", wl(), n_nodes=3,
                  faults=("delay=0.05:5,drop=0.01", 9))
    assert bench.fault_plan is not None
    r = bench.measure(2, warmup_us=50, window_us=150)
    assert r.commits > 0
    assert len(bench.fault_plan.trace) > 0
    assert Bench("xenic", wl(), n_nodes=3).fault_plan is None


@pytest.mark.parametrize("argv, message", [
    (["chaos", "--faults", "drop=2"], "drop must be in [0, 1)"),
    (["trace", "--faults", "bogus=1"], "unknown fault primitive 'bogus'"),
])
def test_malformed_faults_is_a_usage_error(argv, message, monkeypatch,
                                           capsys):
    """A ``--faults`` value that does not parse stops argument parsing
    with exit status 2 and a message naming the field: no cluster is
    built."""
    from repro import __main__ as cli

    def no_run(*args, **kwargs):
        raise AssertionError("a run started on a malformed --faults")

    monkeypatch.setattr(cli, "run_chaos", no_run)
    monkeypatch.setattr(cli, "Bench", no_run)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --faults" in err and message in err


def test_fault_categories_use_independent_streams():
    """Drawing from one category's RNG stream must never perturb another
    category's stream (same seed => same message-fault draws, no matter
    how many NIC-stall or RDMA draws happen in between)."""
    plan_a = FaultPlan(FaultSpec.parse("drop=0.05"), RngStream(7, "faults"))
    plan_b = FaultPlan(FaultSpec.parse("drop=0.05,nic=0.1:0.5"),
                       RngStream(7, "faults"))
    draws_a = [plan_a._msg_rng.random() for _ in range(16)]
    for _ in range(16):  # interleaved draws from other categories
        plan_b._nic_rng.random()
        plan_b._rdma_rng.random()
    draws_b = [plan_b._msg_rng.random() for _ in range(16)]
    assert draws_a == draws_b
