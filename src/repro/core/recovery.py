"""Fault tolerance: membership, backup promotion, lock rebuild (§4.2.1).

Xenic adopts FaRM's reconfiguration/recovery design.  The pieces modeled
here:

* a :class:`ClusterManager` (the ZooKeeper stand-in) holding the
  membership; revoking a failed node starts a new configuration;
* :class:`RecoveryManager.recover_shard` — when a primary fails, a
  surviving backup is promoted.  Lock state lives only in (the failed)
  SmartNIC memory, so it is *rebuilt*: each surviving replica scans its
  log for transactions of the shard not yet acknowledged as committed,
  their write-set keys are re-locked at the new primary, and each
  recovering transaction is resolved — committed iff its LOG record
  reached every surviving backup replica, else aborted — before the locks
  are finally released and the shard serves again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..sim.core import Simulator
from ..store.log import LogRecord

__all__ = ["ClusterManager", "RecoveryManager", "RecoveryReport"]


class ClusterManager:
    """Membership service (off the critical path): the registered nodes.

    A node leaves only by :meth:`revoke` (a fail-stop declaration), which
    bumps the configuration epoch.  No lease timer runs: nothing in the
    model renews a lease, so a timer would expire every node once its
    term passed."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.members: Set[int] = set()
        self.config_epoch = 0
        self.expired_log: List[Tuple[float, int]] = []

    def register(self, node_id: int) -> None:
        self.members.add(node_id)

    def revoke(self, node_id: int) -> None:
        """Drop a registered node (fail-stop declaration) and bump the
        epoch; a second revoke of the same node does nothing."""
        if node_id in self.members:
            self.members.discard(node_id)
            self.expired_log.append((self.sim.now, node_id))
            self.config_epoch += 1


@dataclass
class RecoveryReport:
    shard: int
    old_primary: int
    new_primary: int
    recovering_txns: List[int] = field(default_factory=list)
    committed: List[int] = field(default_factory=list)
    aborted: List[int] = field(default_factory=list)
    locks_rebuilt: int = 0


class RecoveryManager:
    """Drives shard recovery on a :class:`XenicCluster`."""

    def __init__(self, cluster, manager: Optional[ClusterManager] = None):
        self.cluster = cluster
        self.sim = cluster.sim
        self.manager = manager or ClusterManager(cluster.sim)
        for node in cluster.nodes:
            self.manager.register(node.node_id)

    def fail_node(self, node_id: int) -> None:
        """Mark a node failed and revoke its membership."""
        self.cluster.failed.add(node_id)
        self.manager.revoke(node_id)

    def recover_shard(self, shard: int) -> RecoveryReport:
        """Promote a surviving backup to primary for ``shard`` and resolve
        in-flight transactions from the surviving logs."""
        cluster = self.cluster
        old_primary = cluster.primary_node_id(shard)
        if old_primary not in cluster.failed:
            raise RuntimeError("primary of shard %d has not failed" % shard)
        survivors = [
            n for n in cluster.nodes[shard].backups_of(shard)
            if n not in cluster.failed
        ]
        if not survivors:
            raise RuntimeError("shard %d lost all replicas" % shard)
        new_primary = survivors[0]
        report = RecoveryReport(shard, old_primary, new_primary)

        # 1. promote: build a fresh NIC index over the replica table
        node = cluster.nodes[new_primary]
        index = node.promote_to_primary(shard)
        cluster.set_primary(shard, new_primary)

        # 2. scan surviving logs for unacknowledged records of this shard
        pending: Dict[int, Dict[int, LogRecord]] = {}  # txn -> node -> record
        for nid in survivors:
            for record in cluster.nodes[nid].log._records:
                if record.shard == shard and record.kind == "log" and not record.acked:
                    pending.setdefault(record.txn_id, {})[nid] = record
        report.recovering_txns = sorted(pending)

        # 3. re-acquire write locks for every recovering transaction
        write_keys = {
            txn_id: [key for key, _value, _version
                     in next(iter(by_node.values())).writes]
            for txn_id, by_node in pending.items()
        }
        for txn_id, keys in write_keys.items():
            for key in keys:
                index.try_lock(key, txn_id)
            report.locks_rebuilt += len(keys)

        # 4. resolve: commit iff the record reached every surviving backup
        table = node.tables[shard]
        for txn_id in sorted(pending):
            by_node = pending[txn_id]
            if set(by_node) >= set(survivors):
                for key, value, version in by_node[new_primary].writes:
                    obj = table.get_or_create(key, node.value_size)
                    if version > obj.version:
                        obj.install(value, version)
                report.committed.append(txn_id)
            else:
                report.aborted.append(txn_id)
            index.unlock_all(write_keys[txn_id], txn_id)
        return report
