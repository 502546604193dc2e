"""Tests for transactional deletes (§4.1.3: deletions ride the commit
protocol as tombstone writes)."""

import pytest

from repro.core import TxnSpec, XenicCluster, XenicConfig
from repro.core.txn import TOMBSTONE, TxnStatus
from repro.sim import Simulator


def make_cluster(n_nodes=3):
    sim = Simulator()
    cluster = XenicCluster(sim, n_nodes, config=XenicConfig(),
                           keys_per_shard=256, value_size=64)
    for k in range(n_nodes * 64):
        cluster.load_key(k, value=("init", k))
    cluster.start()
    return sim, cluster


def run_txn(sim, cluster, node_id, spec):
    proc = sim.spawn(cluster.protocols[node_id].run_transaction(spec))
    return sim.run_until_event(proc, limit=1e7)


def delete_spec(key):
    return TxnSpec(read_keys=[key], write_keys=[key],
                   logic=lambda r, s: {key: TOMBSTONE}, label="delete")


def test_tombstone_singleton():
    from repro.core.txn import _Tombstone

    assert _Tombstone() is TOMBSTONE
    assert repr(TOMBSTONE) == "<TOMBSTONE>"


def test_delete_removes_from_primary_and_backups():
    sim, cluster = make_cluster()
    k = 1
    run_txn(sim, cluster, 0, delete_spec(k))
    sim.run()
    assert cluster.read_committed_value(k) is None
    assert cluster.nodes[1].tables[1].get_object(k) is None
    for backup in cluster.backups_of(1):
        assert cluster.nodes[backup].tables[1].get_object(k) is None


def test_read_after_delete_returns_none():
    sim, cluster = make_cluster()
    k = 1
    run_txn(sim, cluster, 0, delete_spec(k))
    sim.run()
    txn = run_txn(sim, cluster, 2,
                  TxnSpec(read_keys=[k], write_keys=[], read_only=True))
    assert txn.read_values[k][0] is None


def test_reinsert_after_delete():
    sim, cluster = make_cluster()
    k = 1
    run_txn(sim, cluster, 0, delete_spec(k))
    sim.run()
    run_txn(sim, cluster, 0,
            TxnSpec(read_keys=[k], write_keys=[k],
                    logic=lambda r, s: {k: "reborn"}))
    sim.run()
    assert cluster.read_committed_value(k) == "reborn"
    obj = cluster.nodes[1].tables[1].get_object(k)
    assert obj is not None and obj.value == "reborn"


def test_delete_then_delete_is_idempotent():
    sim, cluster = make_cluster()
    k = 1
    run_txn(sim, cluster, 0, delete_spec(k))
    sim.run()
    run_txn(sim, cluster, 2, delete_spec(k))
    sim.run()
    assert cluster.read_committed_value(k) is None


def test_delete_conflicts_with_concurrent_write():
    """A delete and a write racing on the same key serialize; the final
    state is one of the two outcomes, never a corrupt mix."""
    sim, cluster = make_cluster()
    k = 2
    done = []

    def deleter():
        txn = yield from cluster.protocols[0].run_transaction(delete_spec(k))
        done.append("delete")

    def writer():
        txn = yield from cluster.protocols[1].run_transaction(
            TxnSpec(read_keys=[k], write_keys=[k],
                    logic=lambda r, s: {k: "written"}))
        done.append("write")

    sim.spawn(deleter())
    sim.spawn(writer())
    sim.run()
    assert sorted(done) == ["delete", "write"]
    final = cluster.read_committed_value(k)
    assert final in (None, "written")
    # version advanced twice regardless of order
    assert cluster.nodes[2].index.read_version(k) == 2


def test_local_delete_fast_path():
    sim, cluster = make_cluster()
    k = 0  # local to node 0
    run_txn(sim, cluster, 0, delete_spec(k))
    sim.run()
    assert cluster.read_committed_value(k) is None
    assert cluster.nodes[0].tables[0].get_object(k) is None


def after_delete_spec(kind, key):
    if kind == "read_only":
        return TxnSpec(read_keys=[key], write_keys=[], read_only=True)
    reads = [key] if kind == "read_modify_write" else []
    return TxnSpec(read_keys=reads, write_keys=[key],
                   logic=lambda r, s: {key: "reborn"})


@pytest.mark.parametrize("kind",
                         ["read_modify_write", "read_only", "blind_write"])
@pytest.mark.parametrize("coordinator", [0, 1, 2])
def test_deleted_key_is_current_on_every_coordinator(coordinator, kind):
    """After node 0 deletes key 1, a transaction on key 1 commits at its
    first attempt from every node, its primary (node 1, which reads and
    validates on the host) included: a reader sees the tombstone's
    version, 1, though the delete removed the host object, and a write
    lands at version 2."""
    sim, cluster = make_cluster()
    k = 1
    run_txn(sim, cluster, 0, delete_spec(k))
    sim.run()
    # a transaction that keeps aborting retries for ever: bound the run
    proc = sim.spawn(cluster.protocols[coordinator].run_transaction(
        after_delete_spec(kind, k)))
    txn = sim.run_until_event(proc, limit=sim.now + 5000.0)
    assert txn.status is TxnStatus.COMMITTED and txn.attempts == 1
    sim.run()
    if kind == "read_only":
        assert txn.read_values[k] == (None, 1)
    else:
        assert cluster.read_committed_value(k) == "reborn"
        assert cluster.nodes[1].index.read_version(k) == 2


@pytest.mark.parametrize("coordinator", [0, 1, 2])
def test_a_read_modify_write_returns_its_reads_on_every_coordinator(
        coordinator):
    """Node 1 runs the read-modify-write of key 1 on its own shard;
    nodes 0 and 2 ship it through multi-hop OCC.  Every coordinator
    returns the value and version it read."""
    sim, cluster = make_cluster()
    txn = run_txn(sim, cluster, coordinator,
                  TxnSpec(read_keys=[1], write_keys=[1],
                          logic=lambda r, s: {1: r[1]}))
    assert txn.status is TxnStatus.COMMITTED
    assert txn.read_values == {1: (("init", 1), 0)}
