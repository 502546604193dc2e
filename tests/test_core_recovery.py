"""Tests for membership, backup promotion, and lock/txn recovery
(§4.2.1)."""

import pytest

from repro.core import RecoveryManager, TxnSpec, XenicCluster, XenicConfig
from repro.core.recovery import ClusterManager
from repro.sim import Simulator
from repro.store.log import LogRecord


def make_cluster(n_nodes=4, rf=3):
    sim = Simulator()
    cluster = XenicCluster(
        sim, n_nodes,
        config=XenicConfig(replication_factor=rf),
        keys_per_shard=128, value_size=64,
    )
    for k in range(n_nodes * 32):
        cluster.load_key(k, value=("init", k))
    cluster.start()
    return sim, cluster


def run_txn(sim, cluster, node_id, spec):
    proc = sim.spawn(cluster.protocols[node_id].run_transaction(spec))
    return sim.run_until_event(proc, limit=1e6)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_revoke_drops_lease_immediately():
    """fail_node-style revocation removes the node from the membership
    and bumps the epoch exactly once."""
    sim = Simulator()
    mgr = ClusterManager(sim)
    mgr.register(0)
    mgr.register(1)
    mgr.revoke(1)
    assert mgr.members == {0}
    assert mgr.expired_log == [(0.0, 1)]
    assert mgr.config_epoch == 1
    mgr.revoke(1)  # idempotent
    assert mgr.config_epoch == 1


def test_late_crash_revokes_only_the_failed_node():
    """A crash long after the cluster registered (6,000 us, past any
    lease term) declares only the failed node gone: one revocation, one
    new configuration, and the survivors stay members."""
    sim, cluster = make_cluster()
    recovery = RecoveryManager(cluster)
    sim.run(until=6000.0)
    recovery.fail_node(1)
    assert recovery.manager.expired_log == [(6000.0, 1)]
    assert recovery.manager.config_epoch == 1
    assert recovery.manager.members == {0, 2, 3}


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------


def test_recover_shard_promotes_backup():
    sim, cluster = make_cluster()
    rm = RecoveryManager(cluster)
    # commit some data to shard 1 first
    k = next(kk for kk in range(200) if cluster.shard_of(kk) == 1)
    run_txn(sim, cluster, 0, TxnSpec(read_keys=[k], write_keys=[k],
                                     logic=lambda r, s: {k: "pre-failure"}))
    sim.run()
    rm.fail_node(1)
    report = rm.recover_shard(1)
    assert report.old_primary == 1
    assert report.new_primary == 2  # first surviving backup
    assert cluster.primary_node_id(1) == 2
    # the promoted node can now serve the shard with the committed data
    obj = cluster.nodes[2].tables[1].get_object(k)
    assert obj.value == "pre-failure"


def test_recovery_requires_failed_primary():
    sim, cluster = make_cluster()
    rm = RecoveryManager(cluster)
    with pytest.raises(RuntimeError):
        rm.recover_shard(1)


def test_recovery_commits_fully_logged_txn():
    """A LOG record present on every surviving backup must be committed
    during recovery (it may have been acknowledged to the coordinator)."""
    sim, cluster = make_cluster()
    rm = RecoveryManager(cluster)
    k = next(kk for kk in range(200) if cluster.shard_of(kk) == 1)
    # simulate an in-flight txn: LOG records appended at both backups
    # (nodes 2 and 3), primary crashed before COMMIT
    writes = [(k, "recovered-value", 1)]
    for backup in (2, 3):
        cluster.nodes[backup].log.append(LogRecord(777, "log", 1, list(writes)))
    rm.fail_node(1)
    report = rm.recover_shard(1)
    assert 777 in report.recovering_txns
    assert 777 in report.committed
    assert report.locks_rebuilt >= 1
    obj = cluster.nodes[2].tables[1].get_object(k)
    assert obj.value == "recovered-value"
    assert obj.version == 1


def test_recovery_aborts_partially_logged_txn():
    """A LOG record missing from some surviving backup aborts."""
    sim, cluster = make_cluster()
    rm = RecoveryManager(cluster)
    k = next(kk for kk in range(200) if cluster.shard_of(kk) == 1)
    cluster.nodes[2].log.append(LogRecord(888, "log", 1, [(k, "partial", 1)]))
    # node 3 never got the record
    rm.fail_node(1)
    report = rm.recover_shard(1)
    assert 888 in report.aborted
    obj = cluster.nodes[2].tables[1].get_object(k)
    assert obj.value == ("init", k)  # unchanged


def test_recovery_releases_rebuilt_locks():
    sim, cluster = make_cluster()
    rm = RecoveryManager(cluster)
    k = next(kk for kk in range(200) if cluster.shard_of(kk) == 1)
    for backup in (2, 3):
        cluster.nodes[backup].log.append(LogRecord(999, "log", 1, [(k, "x", 1)]))
    rm.fail_node(1)
    rm.recover_shard(1)
    index = cluster.nodes[2].index_for(1)
    assert not index.is_locked(k)


def test_cluster_serves_transactions_after_recovery():
    sim, cluster = make_cluster()
    rm = RecoveryManager(cluster)
    k = next(kk for kk in range(200) if cluster.shard_of(kk) == 1)
    rm.fail_node(1)
    rm.recover_shard(1)
    # a new transaction against shard 1 is served by node 2 now
    txn = run_txn(sim, cluster, 0,
                  TxnSpec(read_keys=[k], write_keys=[k],
                          logic=lambda r, s: {k: "post-recovery"}))
    sim.run()
    assert txn.status.value == "committed"
    obj = cluster.nodes[2].tables[1].get_object(k)
    assert obj.value == "post-recovery"
    # replication now goes to the remaining live backup only
    obj3 = cluster.nodes[3].tables[1].get_object(k)
    assert obj3.value == "post-recovery"


def test_recovery_with_all_replicas_lost_raises():
    sim, cluster = make_cluster(n_nodes=3, rf=2)
    rm = RecoveryManager(cluster)
    rm.fail_node(1)
    rm.fail_node(2)  # the only backup of shard 1
    with pytest.raises(RuntimeError):
        rm.recover_shard(1)
