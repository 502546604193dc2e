#!/usr/bin/env python
"""Failure drill: kill a primary, promote a backup, resolve in-flight
transactions, and keep serving (§4.2.1).

Commits data to a shard, simulates a primary crash with one transaction
mid-replication (logged on every surviving backup) and another only
partially replicated, runs recovery, and verifies:

* the fully-logged transaction commits during recovery;
* the partially-logged transaction aborts;
* write locks are rebuilt and then released;
* the cluster serves new transactions against the promoted primary.

Run:  python examples/recovery_drill.py
"""

from repro import RecoveryManager, Simulator, TxnSpec, XenicCluster, XenicConfig
from repro.store.log import LogRecord

N_NODES = 4


def main():
    sim = Simulator()
    cluster = XenicCluster(sim, N_NODES,
                           config=XenicConfig(replication_factor=3),
                           keys_per_shard=256)
    for key in range(N_NODES * 64):
        cluster.load_key(key, value=("init", key))
    cluster.start()
    recovery = RecoveryManager(cluster)

    # commit a transaction against shard 1 while it is healthy
    key = 1
    proc = sim.spawn(cluster.protocols[0].run_transaction(
        TxnSpec(read_keys=[key], write_keys=[key],
                logic=lambda r, s: {key: "pre-crash"})))
    sim.run_until_event(proc)
    sim.run()
    print("committed 'pre-crash' to shard 1")

    # fabricate two in-flight transactions at the moment of the crash:
    # txn 501 reached both surviving backups; txn 502 reached only one
    backups = cluster.backups_of(1)
    print("backups of shard 1:", backups)
    for b in backups:
        cluster.nodes[b].log.append(
            LogRecord(501, "log", 1, [(key, "in-flight-full", 2)]))
    cluster.nodes[backups[0]].log.append(
        LogRecord(502, "log", 1, [(key + N_NODES, "in-flight-partial", 1)]))

    # crash the primary of shard 1
    recovery.fail_node(1)
    print("node 1 failed; membership revoked (epoch %d)"
          % recovery.manager.config_epoch)

    report = recovery.recover_shard(1)
    print("promoted node %d to primary of shard 1" % report.new_primary)
    print("recovering txns:", report.recovering_txns)
    print("  committed:", report.committed)
    print("  aborted:  ", report.aborted)
    print("  locks rebuilt: %d" % report.locks_rebuilt)
    assert 501 in report.committed and 502 in report.aborted

    new_primary = cluster.nodes[report.new_primary]
    obj = new_primary.tables[1].get_object(key)
    print("key %d after recovery: %r (version %d)"
          % (key, obj.value, obj.version))
    assert obj.value == "in-flight-full"

    # the cluster serves shard 1 again through the new primary
    proc = sim.spawn(cluster.protocols[0].run_transaction(
        TxnSpec(read_keys=[key], write_keys=[key],
                logic=lambda r, s: {key: "post-recovery"})))
    txn = sim.run_until_event(proc)
    sim.run()
    print("post-recovery txn committed (attempts=%d); key is now %r"
          % (txn.attempts, cluster.read_committed_value(key)))


if __name__ == "__main__":
    main()
