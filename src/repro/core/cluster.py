"""Cluster construction: nodes, partitioning, replication, loading."""

from __future__ import annotations

from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from ..hw.network import Fabric
from ..sim.collector import collector_quiet
from ..sim.core import Simulator
from ..store import VersionedObject, group_by_shard, load_replicas
from .config import XenicConfig
from .node import XenicNode
from .protocol import XenicProtocol

__all__ = ["ShardedCluster", "XenicCluster"]


class ShardedCluster:
    """Loading, the same in every system: a key goes on the whole replica
    set of the shard ``partition`` maps it to.  A cluster supplies
    ``partition``, ``nodes`` (each with ``tables[shard]``), ``value_size``
    and ``backups_of(shard)``."""

    def load_key(self, key: int, value: Any = None, size: Optional[int] = None) -> None:
        """Install a key on its primary and every backup replica."""
        self.load_keys(((key, value, size),))

    def load_keys(self, items: Iterable[Tuple[int, Any, Optional[int]]]) -> None:
        """Install ``(key, value, size)`` items (``size`` None: the
        cluster's ``value_size``) on their primaries and every backup
        replica, each table receiving its keys in the order given."""
        with collector_quiet:
            by_shard = group_by_shard(items, self.partition, self.value_size)
            for shard, objs in by_shard.items():
                self.load_shard(shard, objs)

    def load_shard(self, shard: int, objs: Sequence[VersionedObject]) -> None:
        """Install fresh objects, in order, on ``shard``'s primary and
        every backup replica; each must be a key ``partition`` maps to
        ``shard``.  For a workload that lays out each shard's keys itself
        and so needs no per-key ``partition`` call or grouping pass."""
        with collector_quiet:
            load_replicas(
                self.nodes[shard].tables[shard],
                [self.nodes[n].tables[shard] for n in self.backups_of(shard)],
                objs,
            )


class XenicCluster(ShardedCluster):
    """A set of Xenic nodes over one fabric, with a keyspace partitioner.

    ``partition`` maps a key to its shard (default: modulo).  Every shard's
    primary is the same-numbered node; backups follow it round-robin.
    """

    def __init__(
        self,
        sim: Simulator,
        n_nodes: int,
        config: XenicConfig = None,
        keys_per_shard: int = 4096,
        value_size: int = 64,
        partition: Optional[Callable[[int], int]] = None,
    ):
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.sim = sim
        self.n_nodes = n_nodes
        self.config = config or XenicConfig()
        self.value_size = value_size
        self.partition = partition or (lambda key: key % n_nodes)
        self.fabric = Fabric(sim)
        # Construction, loading and prewarming allocate only objects
        # that stay alive, so all three run collector-quiet.
        with collector_quiet:
            self.nodes: List[XenicNode] = [
                XenicNode(
                    sim, self.fabric, i, n_nodes, self.config,
                    keys_per_shard=keys_per_shard, value_size=value_size,
                )
                for i in range(n_nodes)
            ]
            self.protocols: List[XenicProtocol] = [
                XenicProtocol(self, node) for node in self.nodes
            ]
        self._primary: Dict[int, int] = {i: i for i in range(n_nodes)}
        self.failed: set = set()
        self._workers_started = False

    def start(self) -> None:
        """Start the background host worker threads (idempotent)."""
        if self._workers_started:
            return
        self._workers_started = True
        for node in self.nodes:
            for _ in range(self.config.host_worker_threads):
                node.start_worker()

    # -- placement ------------------------------------------------------------

    def shard_of(self, key: int) -> int:
        return self.partition(key)

    def primary_node_id(self, shard: int) -> int:
        return self._primary[shard]

    def primary_of(self, shard: int) -> XenicNode:
        return self.nodes[self._primary[shard]]

    def set_primary(self, shard: int, node_id: int) -> None:
        """Recovery: repoint a shard's primary (the node must already hold
        a replica and a NIC index for it)."""
        self.nodes[node_id].index_for(shard)  # validates
        self._primary[shard] = node_id

    def backups_of(self, shard: int) -> List[int]:
        """Live backup node ids for ``shard`` (a promoted primary and
        failed nodes are excluded)."""
        primary = self._primary[shard]
        return [
            n
            for n in self.nodes[shard].backups_of(shard)
            if n != primary and n not in self.failed
        ]

    # -- loading ------------------------------------------------------------

    def prewarm_nic_caches(self) -> None:
        """Install every primary object into its NIC cache (up to
        capacity), modeling the steady state of a long-running system
        where the hot set has been pulled into NIC DRAM."""
        with collector_quiet:
            for shard in range(self.n_nodes):
                node = self.primary_of(shard)
                node.index_for(shard).prewarm(node.tables[shard].objects())

    # -- verification helpers ------------------------------------------------

    def read_committed_value(self, key: int):
        """Authoritative committed value of a key: the primary NIC cache if
        pinned/cached, else the primary host table (follows promotions)."""
        from .txn import TOMBSTONE

        shard = self.shard_of(key)
        node = self.primary_of(shard)
        hit, value = node.index_for(shard).cache_lookup(key)
        if hit:
            return None if value is TOMBSTONE else value
        obj = node.tables[shard].get_object(key)
        if obj is None or obj.value is TOMBSTONE:
            return None
        return obj.value

    def replica_divergence(self) -> Dict[int, int]:
        """Count keys whose backup replica version lags the primary's
        *applied* host version (should be 0 once logs drain)."""
        lag = {}
        for shard in range(self.n_nodes):
            primary = self.nodes[shard].tables[shard]
            for backup_id in self.backups_of(shard):
                table = self.nodes[backup_id].tables[shard]
                for obj in primary.objects():
                    other = table.get_object(obj.key)
                    if other is None or other.version != obj.version:
                        lag[shard] = lag.get(shard, 0) + 1
        return lag

    def drain_logs(self, limit_us: float = 1e7) -> None:
        """Run the simulation until every node's log is fully applied."""
        deadline = self.sim.now + limit_us
        while any(n.log.in_log for n in self.nodes):
            if self.sim.now > deadline:
                raise RuntimeError("logs failed to drain")
            if not self.sim.step():
                break
