"""Delay-fusion A/B invariants (``REPRO_FUSION``).

Fusion is meant to be a pure scheduler-work optimization: the simulated
results of a run are byte-identical between the ``off`` and ``on`` legs,
on either queue implementation, with or without an observer installed —
what changes is only how many queue entries the engine pushes to produce
them.  That holds while NIC cores have no waiters, which is the load the
golden point (c=16) applies; under core queueing the legs are known to
differ.  The tests here pin all three: digest equality across the legs
at c=16, the default leg's digest and the recorded cross-leg difference
at c=64, and the event-count reduction the fused paths exist to deliver.
"""

import os

import pytest

from repro.bench.golden import (canonical_digest, fig8d_peak_payload,
                                fig8d_point_payload)
from repro.core.cluster import XenicCluster
from repro.sim.core import Simulator

from .test_golden_digest import FIG8D_DIGEST

# The fig8d cluster at the benchmark's peak load (c=64), default leg.
FIG8D_PEAK_DIGEST = (
    "9d3c521bdbd3ec7be53fddf8c1e3cce6b7c3e4e337760aad0b454a9bdfd21f83")


@pytest.fixture
def fusion_env():
    """Restore REPRO_FUSION/REPRO_QUEUE after a test that flips them."""
    saved = {k: os.environ.get(k) for k in ("REPRO_FUSION", "REPRO_QUEUE")}
    yield os.environ
    for k, v in saved.items():
        if v is None:
            os.environ.pop(k, None)
        else:
            os.environ[k] = v


def test_bad_fusion_value_is_an_error(monkeypatch):
    """REPRO_FUSION=0 is not a quiet way to spell the default."""
    from repro.sim.fusion import selected_fusion

    monkeypatch.setenv("REPRO_FUSION", "0")
    with pytest.raises(ValueError, match="REPRO_FUSION='0'.*on, off"):
        selected_fusion()
    with pytest.raises(ValueError, match="REPRO_FUSION"):
        Simulator()


@pytest.mark.parametrize("queue", ["heap", "calendar"])
def test_digests_identical_off_vs_on(fusion_env, queue):
    """Both fusion legs reproduce the pinned pre-fusion digest, on both
    queue kinds: fused paths change no simulated quantity anywhere."""
    fusion_env["REPRO_QUEUE"] = queue
    digests = {}
    for leg in ("off", "on"):
        fusion_env["REPRO_FUSION"] = leg
        digests[leg] = canonical_digest(fig8d_point_payload())
    assert digests["off"] == digests["on"] == FIG8D_DIGEST


@pytest.mark.parametrize("queue", ["heap", "calendar"])
def test_peak_digest_pinned_on_default_leg(fusion_env, queue):
    """The load level the benchmark's peak phase measures (c=64, NIC
    cores queueing) is pinned too, on the fused default leg and both
    queue kinds; the golden point is c=16."""
    fusion_env["REPRO_FUSION"] = "on"
    fusion_env["REPRO_QUEUE"] = queue
    assert canonical_digest(fig8d_peak_payload()) == FIG8D_PEAK_DIGEST


@pytest.mark.xfail(strict=True, reason=(
    "fused dispatch holds a NIC core across the c1|c2 split and asks for "
    "it one scheduler step earlier than the stepwise leg: the legs differ "
    "once cores have waiters (ROADMAP item 2 decides which is the model)"))
def test_peak_digests_identical_off_vs_on(fusion_env):
    """Known difference, recorded so it cannot be forgotten or fixed
    unnoticed.  On the fig8d cluster with warm-up 100 us / window 300 us
    the legs agree at c=16 (1851 commits / 58 aborts) and c=24 (2646 /
    128) and part at c=32 (on 3339 / 242, off 3377 / 232); at c=64 on
    gives 5795 / 842 with p50 9.41 us, off 5689 / 845 with p50 9.60 us.
    Bisecting the fusion_enabled() sites isolates
    XenicProtocol._fused_dispatch."""
    digests = {}
    for leg in ("off", "on"):
        fusion_env["REPRO_FUSION"] = leg
        digests[leg] = canonical_digest(fig8d_peak_payload())
    assert digests["off"] == digests["on"]


def test_observer_neutral_with_fusion_on(fusion_env):
    """An observed run on the fused leg still matches the pinned digest:
    observer fallbacks reproduce the stepwise timestamps exactly."""
    fusion_env["REPRO_FUSION"] = "on"
    assert canonical_digest(fig8d_point_payload(obs=True)) == FIG8D_DIGEST


def test_attribution_sums_with_fusion_on(fusion_env):
    """Per-phase latency attribution stays exact on the fused leg (the
    observed run takes the stepwise fallbacks, so every annotation point
    still exists)."""
    from repro.bench.runner import Bench
    from repro.obs.attrib import attribute_bench
    from repro.workloads import Smallbank

    fusion_env["REPRO_FUSION"] = "on"
    bench = Bench(
        "xenic",
        Smallbank(3, accounts_per_server=1500, hot_keys_fraction=0.25),
        n_nodes=3, obs=True,
    )
    result = bench.measure(4, warmup_us=60.0, window_us=250.0)
    assert result.commits > 0
    res = attribute_bench(bench)
    assert res.count > 0
    assert res.events_dropped == 0
    # acceptance bar: phases cover end-to-end latency within 1%
    assert res.max_residual_frac() < 0.01


def test_fig8d_events_per_txn_reduction(fusion_env):
    """The headline fused-path win, pinned as a regression gate: the
    fig8d point needs >= 1.5x fewer scheduled events per committed txn
    with fusion on, at identical simulated results, and the fused leg's
    absolute events/txn stays under a ceiling with ~10% headroom over
    the measured value (26.4 at this scale)."""
    from repro.bench.runner import Bench
    from repro.workloads import Smallbank

    measured = {}
    for leg in ("off", "on"):
        fusion_env["REPRO_FUSION"] = leg
        bench = Bench(
            "xenic",
            Smallbank(3, accounts_per_server=2000, hot_keys_fraction=0.25),
            n_nodes=3,
        )
        result = bench.measure(16, warmup_us=100.0, window_us=300.0)
        measured[leg] = result
    off, on = measured["off"], measured["on"]
    # identical simulated outcome...
    assert (off.commits, off.aborts) == (on.commits, on.aborts)
    assert off.throughput_per_server == on.throughput_per_server
    # ...from 1.5x fewer scheduler entries
    assert off.events_scheduled / on.events_scheduled >= 1.5
    assert on.events_per_txn <= 29.0


@pytest.mark.parametrize("system", ["drtmh", "drtmr"])
def test_baseline_rdma_identical_off_vs_on(fusion_env, system):
    """The fused RDMA verb chains (wire+propagation merges) change no
    simulated quantity in the baseline systems.  DrTM+R is the sensitive
    one: its CAS linearization order flips if the on_target-carrying
    event is pushed early (the rejected RX+fixed-budget merge), so this
    scale is chosen to have caught exactly that."""
    from repro.bench.runner import Bench
    from repro.workloads import Smallbank

    legs = {}
    for leg in ("off", "on"):
        fusion_env["REPRO_FUSION"] = leg
        bench = Bench(
            system,
            Smallbank(3, accounts_per_server=1500, hot_keys_fraction=0.25),
            n_nodes=3,
        )
        result = bench.measure(8, warmup_us=80.0, window_us=300.0)
        legs[leg] = (result.commits, result.aborts,
                     result.throughput_per_server, bench.sim.now,
                     result.events_scheduled)
    off, on = legs["off"], legs["on"]
    assert off[:-1] == on[:-1]
    assert off[-1] > on[-1]  # and the fused leg did schedule less


def test_construction_is_event_free_and_linear(fusion_env, monkeypatch):
    """Cluster construction + bulk load at 64 nodes schedules no events,
    allocates per-node state independent of cluster size (tables
    per node == replication factor, one port and one handler per node),
    and inserts each key into a table once: backups are cloned from
    their finished primary, not loaded key by key."""
    from repro.store import RobinhoodTable

    fusion_env["REPRO_FUSION"] = "on"
    inserted = []
    insert_many, insert = RobinhoodTable.insert_many, RobinhoodTable.insert

    def counting_insert_many(table, objs):
        objs = list(objs)
        inserted.append(len(objs))
        insert_many(table, objs)

    def counting_insert(table, key, obj=None):
        inserted.append(1)
        return insert(table, key, obj)

    monkeypatch.setattr(RobinhoodTable, "insert_many", counting_insert_many)
    monkeypatch.setattr(RobinhoodTable, "insert", counting_insert)
    sim = Simulator()
    cluster = XenicCluster(sim, 64, keys_per_shard=64)
    cluster.load_keys((k, None, None) for k in range(64 * 32))
    assert sum(inserted) == 64 * 32
    assert sim.events_scheduled == 0
    assert len(cluster.nodes) == 64
    rf = cluster.config.replication_factor
    assert all(len(n.tables) == rf for n in cluster.nodes)
    assert len(cluster.fabric._handlers) == 64
    assert len(cluster.fabric._ports) == 64
    # every key landed on exactly rf replicas
    total = sum(t.size for n in cluster.nodes for t in n.tables.values())
    assert total == 64 * 32 * rf


def test_bulk_load_asks_for_backups_once_per_shard():
    """The bulk-load path computes each shard's backup list once, and
    cloning changes nothing about what gets loaded where or in what
    order (Robinhood layout is insert-order sensitive)."""
    n, keys = 8, 256
    sim = Simulator()
    fast = XenicCluster(sim, n, keys_per_shard=64)
    calls = []
    orig = fast.backups_of
    fast.backups_of = lambda shard: (calls.append(shard), orig(shard))[1]
    fast.load_keys((k, None, None) for k in range(keys))
    assert len(calls) == n  # once per shard, not once per key
    # reference: the same keys one load_key at a time, which replays
    # every insert on every backup after the first key of a shard
    ref = XenicCluster(Simulator(), n, keys_per_shard=64)
    for k in range(keys):
        ref.load_key(k)
    for a, b in zip(fast.nodes, ref.nodes):
        for shard in a.tables:
            akeys = [o.key for o in a.tables[shard].objects()]
            bkeys = [o.key for o in b.tables[shard].objects()]
            assert akeys == bkeys


def test_nodes64_bench_completes_quick(fusion_env):
    """The 64-node scale bench finishes a quick-mode point and reports
    commits (the quick budget gate: construction, load, and window all
    complete without timeout at scale)."""
    from repro.bench.perf import _bench_nodes64

    fusion_env["REPRO_FUSION"] = "on"
    timed, events, commits = _bench_nodes64(True)
    assert commits > 0
    assert events > 0
    assert timed.wall_s < 60.0
