"""Shared scaffolding for the RDMA-based baseline systems (§2.2.2, §5.1).

The four baselines (DrTM+H, DrTM+H-NC, FaSST, DrTM+R) share the OCC +
primary-backup commit protocol of §2.2.1, a chained-bucket store at each
primary (DrTM+H's data structure), and host-driven coordination over the
CX5 RDMA model.  They differ only in which verb implements each phase —
exactly the §5.1 comparison axes — expressed here as strategy methods that
each variant overrides.

Locks and versions live on the host :class:`VersionedObject`s, reached
through the participant verbs of their table
(:class:`~repro.store.object.ObjectTable`); one-sided verbs run them in
their ``on_target`` linearization callback, and RPC handlers charge
target host cores.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..hw.cpu import CoreGroup
from ..hw.params import HardwareParams, TESTBED
from ..hw.rdma import RdmaNic
from ..sim.collector import collector_quiet
from ..sim.core import Simulator
from ..store.chained import ChainedTable
from ..store.object import VersionedObject
from ..store.replicas import group_keys, group_values
from ..core.cluster import ShardedCluster
from ..core.node import ReplicaPlacement
from ..core.txn import Coordinator, Transaction

__all__ = ["BaselineNode", "BaselineCluster", "BaselineCoordinator"]

# host core cost of issuing one RDMA verb: doorbell write, WQE build,
# completion poll amortization (FaSST/Herd report 0.2-0.4us per verb)
ISSUE_WALL_US = 0.15
# host core cost per key for local table operations
HOST_PER_KEY_US = 0.10
# host core cost of applying one replicated write at a backup
APPLY_WALL_US = 0.30
OBJ_HEADER = 16  # key + version + lock word alongside the value
RECORD_HEADER = 24


class BaselineNode(ReplicaPlacement):
    """One server: host cores + RDMA NIC + replicated chained tables."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        n_nodes: int,
        host_threads: int,
        keys_per_shard: int,
        value_size: int,
        replication_factor: int,
        hardware: HardwareParams,
        bucket_size: int = 8,
    ):
        super().__init__(node_id, n_nodes, replication_factor)
        self.sim = sim
        self.value_size = value_size
        self.host_cores = CoreGroup(
            sim, hardware.host.cpu, cores=host_threads,
            name="b%d.host" % node_id,
        )
        self.rdma = RdmaNic(
            sim, node_id, params=hardware.rdma, host_cores=self.host_cores,
            host_rpc_handle_us=hardware.host.rpc_handle_us,
            name="b%d.rdma" % node_id,
        )
        n_buckets = max(1, int(keys_per_shard / bucket_size / 0.9))
        self.tables: Dict[int, ChainedTable] = {}
        for shard in self.replicated_shards():
            self.tables[shard] = ChainedTable(
                n_buckets, bucket_size=bucket_size, hash_salt=shard
            )


class BaselineCluster(ShardedCluster):
    """A cluster of baseline nodes running one system variant."""

    def __init__(
        self,
        sim: Simulator,
        n_nodes: int,
        system: Callable,  # coordinator class
        host_threads: int = 16,
        keys_per_shard: int = 4096,
        value_size: int = 64,
        replication_factor: int = 3,
        partition: Optional[Callable[[int], int]] = None,
        hardware: HardwareParams = TESTBED,
        bucket_size: int = 8,
    ):
        self.sim = sim
        self.n_nodes = n_nodes
        self.value_size = value_size
        self.partition = partition or (lambda key: key % n_nodes)
        # Construction and loading allocate only objects that stay
        # alive, so both run collector-quiet.
        with collector_quiet:
            self.nodes = [
                BaselineNode(sim, i, n_nodes, host_threads, keys_per_shard,
                             value_size, replication_factor, hardware,
                             bucket_size)
                for i in range(n_nodes)
            ]
            self.coordinators: List[BaselineCoordinator] = [
                system(self, node) for node in self.nodes
            ]
        # uniform interface with XenicCluster
        self.protocols = self.coordinators

    def start(self) -> None:
        """No background threads needed (backup application is charged
        inline at LOG time); present for interface parity."""

    def shard_of(self, key: int) -> int:
        return self.partition(key)

    def primary_node_id(self, shard: int) -> int:
        return shard

    def backups_of(self, shard: int) -> List[int]:
        return self.nodes[shard].backups_of(shard)

    def read_committed_value(self, key: int):
        shard = self.shard_of(key)
        obj = self.nodes[shard].tables[shard].get_object(key)
        return obj.value if obj is not None else None


class BaselineCoordinator(Coordinator):
    """Base OCC coordinator (``run_transaction``: the shared retry
    driver); variants override the ``_remote_*`` hooks."""

    name = "baseline"

    # -- shared skeleton ------------------------------------------------------------

    def _attempt(self, txn: Transaction):
        spec = txn.spec
        if spec.local_compute_us > 0:
            yield from self.node.host_cores.run(spec.local_compute_us)
        by_shard = group_keys(spec.read_keys, spec.write_keys,
                              self.cluster.shard_of)
        ok = yield from self._execute_phase(txn, by_shard)
        if ok:
            if not txn.read_only:
                if spec.logic_cost_us > 0:
                    yield from self.node.host_cores.run(spec.logic_cost_us)
                txn.write_values = txn.run_logic()
            ok = yield from self._validate_phase(txn)
        if ok and txn.read_only:
            yield from self._release_read_locks(txn)
            return True
        if ok:
            writes_by_shard = group_values(txn.write_values,
                                           self.cluster.shard_of)
            ok = yield from self._log_phase(txn, writes_by_shard)
        if not ok:
            yield from self._abort_cleanup(txn)
            return False
        # commit point: writes are durable on all backups
        self.sim.spawn(self._commit_phase(txn, writes_by_shard),
                       name="%s-commit" % self.name)
        return True

    def _primary_table(self, shard: int) -> ChainedTable:
        return self.cluster.nodes[shard].tables[shard]

    def _primary_obj(self, shard: int, key: int) -> Optional[VersionedObject]:
        return self._primary_table(shard).get_object(key)

    def _read_obj(self, shard: int, key: int) -> Tuple[object, int]:
        """``(value, version)`` of ``key`` at its primary; a missing key
        reads as ``(None, 0)``."""
        obj = self._primary_obj(shard, key)
        return (None, 0) if obj is None else (obj.value, obj.version)

    def _still_current(self, txn: Transaction, shard: int, keys) -> bool:
        """Read validation at ``shard``'s primary of the versions ``txn``
        captured for ``keys``."""
        read_values = txn.read_values
        return self._primary_table(shard).reads_current(
            [(k, read_values[k][1]) for k in keys], txn.txn_id)

    def _obj_bytes(self, shard: int, key: int) -> int:
        obj = self._primary_obj(shard, key)
        size = obj.size if obj is not None else self.cluster.value_size
        return size + OBJ_HEADER

    def _rdma_to(self, shard: int) -> RdmaNic:
        return self.cluster.nodes[shard].rdma

    def _issue(self):
        return self.node.host_cores.run_wall(ISSUE_WALL_US)

    # -- EXECUTE ------------------------------------------------------------

    def _execute_phase(self, txn: Transaction, by_shard):
        evs = []
        for shard, (rkeys, wkeys) in by_shard.items():
            if shard == self.node.node_id:
                gen = self._local_execute(txn, shard, rkeys, wkeys)
            else:
                gen = self._remote_execute(txn, shard, rkeys, wkeys)
            evs.append(self.sim.spawn(gen, name="exec-shard"))
        results = yield self.sim.all_of(evs)
        return all(results)

    def _local_execute(self, txn, shard, rkeys, wkeys):
        yield from self.node.host_cores.run_wall(
            HOST_PER_KEY_US * max(1, len(rkeys) + len(wkeys))
        )
        # key by key, each lock recorded as taken: one lost to a conflict
        # leaves the earlier ones held until the abort cleanup
        table = self._primary_table(shard)
        for k in wkeys:
            if not table.try_lock(k, txn.txn_id):
                self.stats.inc("lock_conflicts")
                return False
            txn.record_lock(shard, k)
        for k in rkeys:
            txn.read_values[k] = self._read_obj(shard, k)
        for k in wkeys:
            txn.read_values.setdefault(k, (None, self._read_obj(shard, k)[1]))
        return True

    def _remote_execute(self, txn, shard, rkeys, wkeys):  # pragma: no cover
        raise NotImplementedError

    # -- VALIDATE ------------------------------------------------------------

    def _validate_phase(self, txn: Transaction):
        spec = txn.spec
        write_set = set(spec.write_keys)
        to_check = [k for k in spec.read_keys if k not in write_set]
        if not to_check:
            return True
        evs = []
        for shard, (keys, _none) in group_keys(
                to_check, (), self.cluster.shard_of).items():
            if shard == self.node.node_id:
                gen = self._local_validate(txn, shard, keys)
            else:
                gen = self._remote_validate(txn, shard, keys)
            evs.append(self.sim.spawn(gen, name="validate-shard"))
        results = yield self.sim.all_of(evs)
        if not all(results):
            self.stats.inc("validate_conflicts")
            return False
        return True

    def _local_validate(self, txn, shard, keys):
        yield from self.node.host_cores.run_wall(HOST_PER_KEY_US * len(keys))
        return self._still_current(txn, shard, keys)

    def _remote_validate(self, txn, shard, keys):  # pragma: no cover
        raise NotImplementedError

    # -- LOG ------------------------------------------------------------

    def _record_bytes(self, writes: Dict[int, object],
                      write_bytes: Optional[int] = None) -> int:
        vb = write_bytes if write_bytes is not None else self.cluster.value_size
        return RECORD_HEADER + len(writes) * (16 + vb)

    def _log_phase(self, txn: Transaction, writes_by_shard):
        evs = []
        for shard, writes in writes_by_shard.items():
            for backup in self.cluster.backups_of(shard):
                evs.append(
                    self.sim.spawn(
                        self._log_one(txn, shard, backup, writes),
                        name="log-one",
                    )
                )
        results = yield self.sim.all_of(evs)
        return all(results)

    def _log_one(self, txn, shard, backup, writes):
        versions = {
            k: txn.read_values.get(k, (None, 0))[1] + 1 for k in writes
        }

        def apply_at_backup():
            node = self.cluster.nodes[backup]
            table = node.tables[shard]
            # background application charged to the backup's host cores
            node.host_cores.execute_wall(APPLY_WALL_US * max(1, len(writes)))
            for k, v in writes.items():
                table.get_or_create(k, node.value_size).install(v, versions[k])
            return True

        if backup == self.node.node_id:
            yield from self.node.host_cores.run_wall(APPLY_WALL_US)
            apply_at_backup()
            return True
        ok = yield from self._remote_log(txn, shard, backup, writes,
                                         apply_at_backup)
        return ok

    def _write_bytes(self, txn) -> int:
        # The published baselines replicate whole objects: FaRM/DrTM+H log
        # records and DrTM+R commit WRITEs carry the full value in their
        # fixed record formats.  Field-level delta replication is part of
        # Xenic's software flexibility (§5.5), so baselines do not get it.
        return self.cluster.value_size

    def _remote_log(self, txn, shard, backup, writes, apply_fn):
        """Default: one one-sided WRITE of the record into the backup's
        log region (FaRM/DrTM+H style); the backup applies it in the
        background (charged to its host cores inside ``apply_fn``)."""
        yield from self._issue()
        ok = yield self.node.rdma.write(
            self._rdma_to(backup),
            self._record_bytes(writes, self._write_bytes(txn)),
            on_target=apply_fn,
        )
        return bool(ok)

    # -- COMMIT ------------------------------------------------------------

    def _commit_phase(self, txn: Transaction, writes_by_shard):
        for shard, writes in writes_by_shard.items():
            if shard == self.node.node_id:
                yield from self.node.host_cores.run_wall(
                    HOST_PER_KEY_US * max(1, len(writes))
                )
                self._apply_commit_at(shard, txn, writes)
            else:
                yield from self._remote_commit(txn, shard, writes)

    def _apply_commit_at(self, shard: int, txn, writes: Dict[int, object]) -> None:
        table = self._primary_table(shard)
        for k, v in writes.items():
            table.get_or_create(k, self.cluster.value_size).commit_write(v)
        table.unlock_all(writes, txn.txn_id)

    def _remote_commit(self, txn, shard, writes):  # pragma: no cover
        raise NotImplementedError

    # -- aborts ------------------------------------------------------------

    def _abort_cleanup(self, txn: Transaction):
        for shard, keys in list(txn.locked.items()):
            if shard == self.node.node_id:
                self._primary_table(shard).unlock_all(keys, txn.txn_id)
            else:
                yield from self._remote_unlock(txn, shard, keys)
        txn.clear_locks()

    def _remote_unlock(self, txn, shard, keys):  # pragma: no cover
        raise NotImplementedError

    def _release_read_locks(self, txn: Transaction):
        """Hook for lock-all designs (DrTM+R); OCC variants do nothing."""
        return
        yield  # pragma: no cover
