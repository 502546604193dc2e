"""Shared scaffolding for the RDMA-based baseline systems (§2.2.2, §5.1).

The four baselines (DrTM+H, DrTM+H-NC, FaSST, DrTM+R) share the OCC +
primary-backup commit protocol of §2.2.1, a chained-bucket store at each
primary (DrTM+H's data structure), and host-driven coordination over the
CX5 RDMA model.  They differ only in which verb implements each phase —
exactly the §5.1 comparison axes — expressed here as strategy methods that
each variant overrides.

Locks and versions live on the host :class:`VersionedObject`s; one-sided
verbs mutate them via their ``on_target`` linearization callback, and RPC
handlers charge target host cores.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..hw.cpu import CoreGroup
from ..hw.params import HardwareParams, TESTBED
from ..hw.rdma import RdmaNic
from ..sim.collector import collector_quiet
from ..sim.core import Simulator
from ..sim.stats import Counter
from ..store.chained import ChainedTable
from ..store.object import VersionedObject
from ..store.replicas import group_by_shard, load_replicas
from ..core.txn import Transaction, TxnSpec, TxnStatus

__all__ = ["BaselineNode", "BaselineCluster", "BaselineCoordinator"]

ABORT_BACKOFF_US = 1.5
# host core cost of issuing one RDMA verb: doorbell write, WQE build,
# completion poll amortization (FaSST/Herd report 0.2-0.4us per verb)
ISSUE_WALL_US = 0.15
# host core cost per key for local table operations
HOST_PER_KEY_US = 0.10
# host core cost of applying one replicated write at a backup
APPLY_WALL_US = 0.30
OBJ_HEADER = 16  # key + version + lock word alongside the value
RECORD_HEADER = 24


class BaselineNode:
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
        self.sim = sim
        self.node_id = node_id
        self.n_nodes = n_nodes
        self.value_size = value_size
        self.replication_factor = min(replication_factor, n_nodes)
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
        self.txn_seq = 0

    def replicated_shards(self) -> List[int]:
        return [(self.node_id - i) % self.n_nodes
                for i in range(self.replication_factor)]

    def backups_of(self, shard: int) -> List[int]:
        return [(shard + i) % self.n_nodes
                for i in range(1, self.replication_factor)]

    def next_txn_id(self) -> int:
        self.txn_seq += 1
        from ..core.txn import make_txn_id

        return make_txn_id(self.node_id, self.txn_seq)


class BaselineCluster:
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

    def load_key(self, key: int, value=None, size: Optional[int] = None) -> None:
        self.load_keys(((key, value, size),))

    def load_keys(self, items: Iterable[Tuple[int, object, Optional[int]]]
                  ) -> None:
        """Install ``(key, value, size)`` items (``size`` None: the
        cluster's ``value_size``) on their primaries and every backup
        replica, each table receiving its keys in the order given."""
        with collector_quiet:
            by_shard = group_by_shard(items, self.partition, self.value_size)
            for shard, objs in by_shard.items():
                load_replicas(
                    self.nodes[shard].tables[shard],
                    [self.nodes[n].tables[shard]
                     for n in self.backups_of(shard)],
                    objs,
                )

    def read_committed_value(self, key: int):
        shard = self.shard_of(key)
        obj = self.nodes[shard].tables[shard].get_object(key)
        return obj.value if obj is not None else None


class BaselineCoordinator:
    """Base OCC coordinator; variants override the ``_remote_*`` hooks."""

    name = "baseline"

    def __init__(self, cluster: BaselineCluster, node: BaselineNode):
        self.cluster = cluster
        self.node = node
        self.sim = node.sim
        self.stats = Counter()
        # Observability sink (repro.obs.Observer); None disables spans.
        self.obs = None
        # Optional abort callback (bench harnesses record abort latencies
        # through it); called with the Transaction on every aborted attempt.
        self.on_abort = None

    # -- public API ------------------------------------------------------------

    def run_transaction(self, spec: TxnSpec):
        txn = Transaction(self.node.next_txn_id(), self.node.node_id, spec)
        txn.started_at = self.sim.now
        while True:
            ok = yield from self._attempt(txn)
            if ok:
                break
            self.stats.inc("aborts")
            if self.obs is not None:
                self.obs.txn_abort(self.node.node_id, txn)
            if self.on_abort is not None:
                self.on_abort(txn)
            txn.reset_for_retry()
            yield self.sim.timeout(ABORT_BACKOFF_US * min(txn.attempts, 16))
        txn.committed_at = self.sim.now
        txn.status = TxnStatus.COMMITTED
        self.stats.inc("commits")
        if self.obs is not None:
            self.obs.txn_commit(self.node.node_id, txn)
        return txn

    # -- shared skeleton ------------------------------------------------------------

    def _attempt(self, txn: Transaction):
        spec = txn.spec
        if spec.local_compute_us > 0:
            yield from self.node.host_cores.run(spec.local_compute_us)
        by_shard = self._group_by_shard(spec)
        ok = yield from self._execute_phase(txn, by_shard)
        if not ok:
            yield from self._abort_cleanup(txn)
            return False
        if not txn.read_only:
            if spec.logic_cost_us > 0:
                yield from self.node.host_cores.run(spec.logic_cost_us)
            txn.write_values = txn.run_logic()
        ok = yield from self._validate_phase(txn)
        if not ok:
            yield from self._abort_cleanup(txn)
            return False
        if txn.read_only:
            yield from self._release_read_locks(txn)
            return True
        ok = yield from self._log_phase(txn)
        if not ok:
            yield from self._abort_cleanup(txn)
            return False
        # commit point: writes are durable on all backups
        self.sim.spawn(self._commit_phase(txn), name="%s-commit" % self.name)
        return True

    def _group_by_shard(self, spec: TxnSpec):
        groups: Dict[int, Tuple[List[int], List[int]]] = {}
        for k in spec.read_keys:
            groups.setdefault(self.cluster.shard_of(k), ([], []))[0].append(k)
        for k in spec.write_keys:
            groups.setdefault(self.cluster.shard_of(k), ([], []))[1].append(k)
        return groups

    def _primary_obj(self, shard: int, key: int) -> Optional[VersionedObject]:
        return self.cluster.nodes[shard].tables[shard].get_object(key)

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
        for k in wkeys:
            obj = self._primary_obj(shard, k)
            if obj is None or not obj.try_lock(txn.txn_id):
                self.stats.inc("lock_conflicts")
                return False
            txn.record_lock(shard, k)
        for k in rkeys:
            obj = self._primary_obj(shard, k)
            if obj is None:
                txn.read_values[k] = (None, 0)
            else:
                txn.read_values[k] = (obj.value, obj.version)
        for k in wkeys:
            obj = self._primary_obj(shard, k)
            txn.read_values.setdefault(k, (None, obj.version if obj else 0))
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
        groups: Dict[int, List[int]] = {}
        for k in to_check:
            groups.setdefault(self.cluster.shard_of(k), []).append(k)
        evs = []
        for shard, keys in groups.items():
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
        for k in keys:
            obj = self._primary_obj(shard, k)
            _v, ver = txn.read_values[k]
            if obj is None or obj.version != ver or (
                obj.locked and obj.lock_owner != txn.txn_id
            ):
                return False
        return True

    def _remote_validate(self, txn, shard, keys):  # pragma: no cover
        raise NotImplementedError

    # -- LOG ------------------------------------------------------------

    def _record_bytes(self, writes: Dict[int, object],
                      write_bytes: Optional[int] = None) -> int:
        vb = write_bytes if write_bytes is not None else self.cluster.value_size
        return RECORD_HEADER + len(writes) * (16 + vb)

    def _log_phase(self, txn: Transaction):
        evs = []
        for shard, writes in self._writes_by_shard(txn).items():
            for backup in self.cluster.backups_of(shard):
                evs.append(
                    self.sim.spawn(
                        self._log_one(txn, shard, backup, writes),
                        name="log-one",
                    )
                )
        results = yield self.sim.all_of(evs)
        return all(results)

    def _writes_by_shard(self, txn: Transaction):
        groups: Dict[int, Dict[int, object]] = {}
        for k, v in txn.write_values.items():
            groups.setdefault(self.cluster.shard_of(k), {})[k] = v
        return groups

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
                obj = table.get_object(k)
                if obj is None:
                    obj = VersionedObject(k, value=v, size=node.value_size)
                    table.insert(k, obj)
                obj.value = v
                obj.version = versions[k]
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

    def _commit_phase(self, txn: Transaction):
        for shard, writes in self._writes_by_shard(txn).items():
            if shard == self.node.node_id:
                yield from self.node.host_cores.run_wall(
                    HOST_PER_KEY_US * max(1, len(writes))
                )
                self._apply_commit_at(shard, txn, writes)
            else:
                yield from self._remote_commit(txn, shard, writes)

    def _apply_commit_at(self, shard: int, txn, writes: Dict[int, object]) -> None:
        table = self.cluster.nodes[shard].tables[shard]
        for k, v in writes.items():
            obj = table.get_object(k)
            if obj is None:
                obj = VersionedObject(k, value=v,
                                      size=self.cluster.value_size)
                table.insert(k, obj)
                obj.lock_owner = txn.txn_id
            obj.commit_write(v)
            if obj.lock_owner == txn.txn_id:
                obj.unlock(txn.txn_id)

    def _remote_commit(self, txn, shard, writes):  # pragma: no cover
        raise NotImplementedError

    # -- aborts ------------------------------------------------------------

    def _abort_cleanup(self, txn: Transaction):
        for shard, keys in list(txn.locked.items()):
            if shard == self.node.node_id:
                for k in keys:
                    obj = self._primary_obj(shard, k)
                    if obj is not None and obj.lock_owner == txn.txn_id:
                        obj.unlock(txn.txn_id)
            else:
                yield from self._remote_unlock(txn, shard, keys)
        txn.clear_locks()

    def _remote_unlock(self, txn, shard, keys):  # pragma: no cover
        raise NotImplementedError

    def _release_read_locks(self, txn: Transaction):
        """Hook for lock-all designs (DrTM+R); OCC variants do nothing."""
        return
        yield  # pragma: no cover
