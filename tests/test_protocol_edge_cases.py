"""Edge-case tests for the Xenic protocol: back-pressure, large objects,
cache eviction under pressure, ship-abort paths, and config variants."""

import pytest

from repro.core import RecoveryManager, TxnSpec, XenicCluster, XenicConfig
from repro.sim import Simulator
from repro.store import HostLog


def make_cluster(n_nodes=3, config=None, keys=64, value_size=64):
    sim = Simulator()
    cluster = XenicCluster(sim, n_nodes, config=config or XenicConfig(),
                           keys_per_shard=256, value_size=value_size)
    for k in range(n_nodes * keys):
        cluster.load_key(k, value=("init", k))
    cluster.start()
    return sim, cluster


def run_txn(sim, cluster, node_id, spec):
    proc = sim.spawn(cluster.protocols[node_id].run_transaction(spec))
    return sim.run_until_event(proc, limit=1e7)


def test_log_backpressure_recovers():
    """A tiny log with slow workers makes appends wait; every transaction
    still commits and every log drains."""
    config = XenicConfig(log_capacity=2, worker_apply_us=5.0)
    sim, cluster = make_cluster(config=config)
    keys = [1 + 3 * i for i in range(8)]
    for i, k in enumerate(keys):
        sim.spawn(cluster.protocols[i % 3].run_transaction(
            TxnSpec(read_keys=[k], write_keys=[k],
                    logic=lambda r, s, k=k, i=i: {k: i})))
    sim.run()
    bp = sum(p.stats.get("log_backpressure") for p in cluster.protocols)
    commits = sum(p.stats.get("commits") for p in cluster.protocols)
    assert bp > 0
    assert commits == 8
    for node in cluster.nodes:
        assert node.log.in_log == 0


def test_full_log_drops_no_record(monkeypatch):
    """An append that found room reserved it: when its DMA write lands the
    log takes the record even if other appends filled it meanwhile, so
    every replica applies every committed write."""
    refused = []
    append = HostLog.append

    def counted(log, record):
        ok = append(log, record)
        if not ok:
            refused.append(record.txn_id)
        return ok

    monkeypatch.setattr(HostLog, "append", counted)
    config = XenicConfig(log_capacity=2, worker_apply_us=5.0)
    sim, cluster = make_cluster(config=config)
    keys = [1 + 3 * i for i in range(8)]  # all of shard 1
    for i, k in enumerate(keys):
        sim.spawn(cluster.protocols[i % 3].run_transaction(
            TxnSpec(read_keys=[k], write_keys=[k],
                    logic=lambda r, s, k=k, i=i: {k: ("new", i)})))
    sim.run()
    assert sum(p.stats.get("commits") for p in cluster.protocols) == 8
    assert sum(p.stats.get("log_backpressure") for p in cluster.protocols) > 0
    assert refused == []
    for i, k in enumerate(keys):
        for n in [1] + cluster.backups_of(1):
            assert cluster.nodes[n].tables[1].get_object(k).value == ("new", i)


def test_large_objects_roundtrip():
    """Objects above the 256B threshold use the pointer-chase DMA path."""
    sim, cluster = make_cluster(value_size=660)
    # evict from cache so reads must touch host memory
    k = 1
    cluster.nodes[1].index._cache.clear()
    txn = run_txn(sim, cluster, 0,
                  TxnSpec(read_keys=[k], write_keys=[k],
                          logic=lambda r, s: {k: "big-write"}))
    sim.run()
    assert cluster.read_committed_value(k) == "big-write"


def test_tiny_cache_evicts_and_still_correct():
    config = XenicConfig(nic_cache_capacity=4, multihop_occ=False)
    sim, cluster = make_cluster(config=config)
    keys = [1 + 3 * i for i in range(12)]  # all shard 1
    for i, k in enumerate(keys):
        run_txn(sim, cluster, 0,
                TxnSpec(read_keys=[k], write_keys=[k],
                        logic=lambda r, s, i=i: {k: ("gen", i)}))
    sim.run()
    idx = cluster.nodes[1].index
    assert idx.evictions > 0
    for i, k in enumerate(keys):
        assert cluster.read_committed_value(k) == ("gen", i)


def test_ship_abort_releases_everything():
    """EXEC_SHIP hitting a held write lock aborts cleanly and retries."""
    sim, cluster = make_cluster()
    k_local, k_remote = 0, 1
    idx = cluster.nodes[1].index
    idx.try_lock(k_remote, txn_id=424242)

    def writer():
        spec = TxnSpec(read_keys=[k_local, k_remote],
                       write_keys=[k_local, k_remote],
                       logic=lambda r, s: {k_local: "a", k_remote: "b"})
        txn = yield from cluster.protocols[0].run_transaction(spec)
        return txn

    proc = sim.spawn(writer())
    sim.run(until=100.0)
    assert not proc.triggered  # stuck retrying behind the foreign lock
    # local key must not be left locked between retries
    meta = cluster.nodes[0].index._meta.get(k_local)
    assert meta is None or meta.lock_owner is None
    idx.unlock(k_remote, 424242)
    txn = sim.run_until_event(proc, limit=1e7)
    assert txn.attempts > 1
    sim.run()
    assert cluster.read_committed_value(k_remote) == "b"


def test_readonly_multishard_validate_conflict_retries():
    sim, cluster = make_cluster()
    k1, k2 = 1, 2
    # hold a write lock on k2 so the reader's validate/inline check fails
    idx = cluster.nodes[2].index
    idx.try_lock(k2, txn_id=777777)

    def reader():
        txn = yield from cluster.protocols[0].run_transaction(
            TxnSpec(read_keys=[k1, k2], write_keys=[], read_only=True))
        return txn

    proc = sim.spawn(reader())
    sim.run(until=80.0)
    assert not proc.triggered
    idx.unlock(k2, 777777)
    txn = sim.run_until_event(proc, limit=1e7)
    assert txn.attempts > 1


def test_external_state_shipped_with_txn():
    sim, cluster = make_cluster()
    k = 1

    def logic(reads, state):
        return {k: ("stamped", state)}

    txn = run_txn(sim, cluster, 0,
                  TxnSpec(read_keys=[k], write_keys=[k], logic=logic,
                          external_state={"user": 42},
                          external_state_bytes=64))
    sim.run()
    assert cluster.read_committed_value(k) == ("stamped", {"user": 42})


def test_ship_execution_false_runs_on_coordinator():
    config = XenicConfig()
    sim, cluster = make_cluster(config=config)
    k = 1
    run_txn(sim, cluster, 0,
            TxnSpec(read_keys=[k], write_keys=[k],
                    logic=lambda r, s: {k: "host-run"},
                    ship_execution=False))
    sim.run()
    # no multihop, no NIC/shipped execution for this txn
    assert cluster.protocols[0].stats.get("multihop") == 0
    assert cluster.protocols[1].stats.get("shipped_executions") == 0
    assert cluster.read_committed_value(k) == "host-run"


def test_write_bytes_shrinks_log_records():
    """Delta-sized writes produce smaller wire/log footprints."""
    sim1, c1 = make_cluster(value_size=320)
    run_txn(sim1, c1, 0, TxnSpec(read_keys=[1], write_keys=[1],
                                 logic=lambda r, s: {1: "x"}))
    sim1.run()
    full = sum(n.nic.port.bytes_sent for n in c1.nodes)

    sim2, c2 = make_cluster(value_size=320)
    run_txn(sim2, c2, 0, TxnSpec(read_keys=[1], write_keys=[1],
                                 logic=lambda r, s: {1: "x"},
                                 write_bytes=16))
    sim2.run()
    delta = sum(n.nic.port.bytes_sent for n in c2.nodes)
    assert delta < full


def test_replication_factor_one_no_log_traffic():
    config = XenicConfig(replication_factor=1)
    sim, cluster = make_cluster(config=config)
    k = 1
    run_txn(sim, cluster, 0, TxnSpec(read_keys=[k], write_keys=[k],
                                     logic=lambda r, s: {k: "solo"}))
    sim.run()
    assert cluster.read_committed_value(k) == "solo"
    # no backups: LOG phase has no targets
    for node in cluster.nodes:
        for rec in []:
            pass
        assert all(rec.kind != "log" for rec in node.log._records)


def test_single_node_cluster_local_only():
    sim = Simulator()
    cluster = XenicCluster(sim, 1, config=XenicConfig(replication_factor=1),
                           keys_per_shard=128)
    for k in range(32):
        cluster.load_key(k, value=k)
    cluster.start()
    proc = sim.spawn(cluster.protocols[0].run_transaction(
        TxnSpec(read_keys=[3], write_keys=[3],
                logic=lambda r, s: {3: r[3] + 1})))
    txn = sim.run_until_event(proc, limit=1e7)
    sim.run()
    assert cluster.read_committed_value(3) == 4
    assert cluster.protocols[0].stats.get("local_readonly") == 0


def test_insert_new_key_via_transaction():
    """Writing a key that was never loaded inserts it at commit time."""
    sim, cluster = make_cluster()
    new_key = 3 * 1000 + 1  # shard 1, never loaded
    run_txn(sim, cluster, 0,
            TxnSpec(read_keys=[], write_keys=[new_key],
                    logic=lambda r, s: {new_key: "fresh"}))
    sim.run()
    assert cluster.read_committed_value(new_key) == "fresh"
    obj = cluster.nodes[1].tables[1].get_object(new_key)
    assert obj is not None and obj.version == 1


def test_multihop_with_a_read_only_shard_commits():
    """Multi-hop over a shard the logic only reads: the remote primary
    LOGs the written shard alone, so only its backups' acks may be
    awaited (the coordinator used to wait for the read-only shard's
    backups too, and hang with its local key locked)."""
    sim, cluster = make_cluster()
    k_local, k_remote = 0, 1
    proc = sim.spawn(cluster.protocols[0].run_transaction(
        TxnSpec(read_keys=[k_local, k_remote], write_keys=[k_remote],
                logic=lambda r, s: {k_remote: ("sum", r[k_local],
                                               r[k_remote])})))
    txn = sim.run_until_event(proc, limit=1000.0)
    assert txn.attempts == 1
    assert cluster.protocols[0].stats.get("multihop") == 1
    sim.run()
    assert cluster.read_committed_value(k_remote) == (
        "sum", ("init", k_local), ("init", k_remote))
    assert not cluster.nodes[0].index.is_locked(k_local)
    assert not cluster.nodes[1].index.is_locked(k_remote)
    assert sum(p.stats.get("stray_log_acks") for p in cluster.protocols) == 0


def test_multihop_after_failover_counts_a_promoted_shard_as_local():
    """Once recovery makes node 2 the primary of shard 1, a shard is
    local to node 2 iff node 2 is its primary.  A transaction it
    coordinates over shards {1, 2} runs both shards locally (multi-hop
    used to count shard 1 as remote and send EXEC_SHIP from node 2 to
    itself, an error the coordination swallowed, leaving the transaction
    hung); one over {1, 0} is multi-hop with shard 1 as the local one.
    Both commit the right values and nothing escapes ``sim.run``."""
    sim, cluster = make_cluster()
    recovery = RecoveryManager(cluster)
    recovery.fail_node(1)
    recovery.recover_shard(1)
    assert cluster.primary_node_id(1) == 2
    coord = cluster.protocols[2]
    k1, k2 = 1, 2  # shards 1 and 2, both primaried at node 2 now
    run_txn(sim, cluster, 2,
            TxnSpec(read_keys=[k1, k2], write_keys=[k1, k2],
                    logic=lambda r, s: {k1: ("both", r[k1]),
                                        k2: ("both", r[k2])}))
    sim.run()
    assert coord.stats.get("multihop") == 0
    assert cluster.read_committed_value(k1) == ("both", ("init", k1))
    assert cluster.read_committed_value(k2) == ("both", ("init", k2))
    k_local, k_remote = 4, 3  # shard 1 (promoted, local), shard 0
    run_txn(sim, cluster, 2,
            TxnSpec(read_keys=[k_local, k_remote],
                    write_keys=[k_local, k_remote],
                    logic=lambda r, s: {k_local: ("mh", r[k_remote]),
                                        k_remote: ("mh", r[k_local])}))
    sim.run()
    assert coord.stats.get("multihop") == 1
    assert cluster.read_committed_value(k_local) == ("mh", ("init", k_remote))
    assert cluster.read_committed_value(k_remote) == ("mh", ("init", k_local))
    assert not cluster.nodes[2].index_for(1).is_locked(k_local)
    assert not cluster.nodes[0].index.is_locked(k_remote)
