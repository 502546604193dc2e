"""Shared scaffolding for the RDMA-based baseline systems (§2.2.2, §5.1).

The four baselines (DrTM+H, DrTM+H-NC, FaSST, DrTM+R) share the OCC +
primary-backup commit protocol of §2.2.1, a chained-bucket store at each
primary (DrTM+H's data structure), and host-driven coordination over the
CX5 RDMA model.  They differ only in which verb implements each phase —
exactly the §5.1 comparison axes — expressed here as hook methods that
each variant overrides.  Nothing here is a generator: an attempt and each
shard's, key's or backup's part of a phase is a callback chain
(:class:`_Step`) on exactly the waits the generator form yielded.

Locks and versions live on the host :class:`VersionedObject`s, reached
through the participant verbs of their table
(:class:`~repro.store.object.ObjectTable`); one-sided verbs run them in
their ``on_target`` linearization callback, and RPC handlers charge
target host cores.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..hw.cpu import CoreGroup
from ..hw.params import (BASELINE_APPLY_US, HOST_PER_KEY_US, RDMA_ISSUE_US,
                         HardwareParams, TESTBED)
from ..hw.rdma import RdmaNic
from ..sim.collector import collector_quiet
from ..sim.core import Gather, Simulator
from ..store.chained import ChainedTable
from ..store.log import record_size_bytes
from ..store.object import VersionedObject
from ..store.replicas import group_keys, group_values
from ..core.cluster import ShardedCluster
from ..core.messages import APP_HEADER, PER_KEY
from ..core.node import ReplicaPlacement
from ..core.txn import Coordinator, Transaction

__all__ = ["BaselineNode", "BaselineCluster", "BaselineCoordinator"]

OBJ_HEADER = 16  # key + version + lock word alongside the value


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
            host=hardware.host,
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

    def backups_of(self, shard: int) -> List[int]:
        return self.nodes[shard].backups_of(shard)

    def read_committed_value(self, key: int):
        shard = self.shard_of(key)
        obj = self.nodes[shard].tables[shard].get_object(key)
        return obj.value if obj is not None else None


class BaselineCoordinator(Coordinator):
    """Base OCC coordinator (``run_transaction``: the shared retry
    driver); variants override the ``_remote_*`` hooks.  EXECUTE and
    VALIDATE have no default; LOG defaults to one one-sided WRITE, and
    COMMIT and the abort's unlock to one RPC each (:meth:`_rpc`).

    Every hook returns an unstarted :class:`_Step` that reports
    ``then(result)``.  Its caller starts it inline (``step._start()``),
    or, where the generator form spawned a process per shard, key or
    backup, at an entry at now (``sim.call_at(now, step._start)``): the
    start event the spawn pushed."""

    name = "baseline"

    def _attempt(self, txn: Transaction, then) -> None:
        _Attempt(self, txn, then)._start()

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

    def _rpc(self, shard, req_bytes, resp_bytes, n_keys, on_target,
             then) -> _Step:
        """One RPC to ``shard``'s host: the issue, the RPC, then
        ``then(on_target's result)``."""
        return _Issue(self, partial(
            self.node.rdma.rpc, self._rdma_to(shard), req_bytes, resp_bytes,
            handler_ref_us=HOST_PER_KEY_US * max(1, n_keys),
            on_target=on_target,
        ), then)

    # -- EXECUTE ------------------------------------------------------------

    def _local_execute(self, txn, shard, rkeys, wkeys, then) -> _Step:
        return _LocalExecute(self, txn, shard, rkeys, wkeys, then)

    def _remote_execute(self, txn, shard, rkeys, wkeys,
                        then) -> _Step:  # pragma: no cover
        raise NotImplementedError

    # -- VALIDATE ------------------------------------------------------------

    def _local_validate(self, txn, shard, keys, then) -> _Step:
        return _LocalValidate(self, txn, shard, keys, then)

    def _remote_validate(self, txn, shard, keys,
                         then) -> _Step:  # pragma: no cover
        raise NotImplementedError

    # -- LOG ------------------------------------------------------------

    def _write_bytes(self, txn) -> int:
        # The published baselines replicate whole objects: FaRM/DrTM+H log
        # records and DrTM+R commit WRITEs carry the full value in their
        # fixed record formats.  Field-level delta replication is part of
        # Xenic's software flexibility (§5.5), so baselines do not get it.
        return self.cluster.value_size

    def _remote_log(self, txn, shard, backup, writes, apply_fn,
                    then) -> _Step:
        """Default: one one-sided WRITE of the record into the backup's
        log region (FaRM/DrTM+H style); the backup applies it in the
        background (charged to its host cores inside ``apply_fn``)."""
        return _Issue(self, partial(
            self.node.rdma.write, self._rdma_to(backup),
            record_size_bytes(len(writes), self._write_bytes(txn)),
            on_target=apply_fn), then)

    # -- COMMIT ------------------------------------------------------------

    def _apply_commit_at(self, shard: int, txn, writes: Dict[int, object]) -> None:
        table = self._primary_table(shard)
        for k, v in writes.items():
            table.get_or_create(k, self.cluster.value_size).commit_write(v)
        table.unlock_all(writes, txn.txn_id)

    def _remote_commit(self, txn, shard, writes, then) -> _Step:
        """Default: one RPC that applies and unlocks at the primary."""
        req = APP_HEADER + len(writes) * (PER_KEY + self._write_bytes(txn))
        return self._rpc(shard, req, APP_HEADER, len(writes),
                         partial(self._apply_commit_at, shard, txn, writes),
                         then)

    # -- aborts ------------------------------------------------------------

    def _remote_unlock(self, txn, shard, keys, then) -> _Step:
        """Default: one RPC that releases ``keys`` at the primary."""
        req = APP_HEADER + PER_KEY * len(keys)
        return self._rpc(shard, req, APP_HEADER, len(keys),
                         partial(self._primary_table(shard).unlock_all, keys,
                                 txn.txn_id), then)


class _Step:
    """One operation of a baseline coordinator in flight: an attempt, or
    one shard's, key's or backup's part of a phase.

    A callback chain: each stage is a method passed as the ``then`` of
    exactly the wait the generator form yielded there — a host-core job
    (``run_then`` / ``run_wall_then``), a verb, a fan-out's
    :class:`~repro.sim.core.Gather` — so every push keeps its instant
    and same-instant position, with no generator to resume and no
    ``Process``.  The constructor only stores the arguments; ``_start``
    runs the first stage, and the step ends by calling
    ``then(result)``.  No stage is a closure that reaches its own step,
    and a step that holds a gather drops it before it waits on it, so a
    finished step is freed by reference count."""

    __slots__ = ("c", "txn", "then")

    def __init__(self, c: BaselineCoordinator, txn: Optional[Transaction],
                 then):
        self.c = c
        self.txn = txn
        self.then = then

    def _issue(self, stage) -> None:
        """The host-core cost of issuing one RDMA verb, then ``stage``."""
        self.c.node.host_cores.run_wall_then(RDMA_ISSUE_US, stage)

    def _spawn(self, step: _Step) -> None:
        """Start ``step`` at an entry at now, where the generator form
        spawned a process."""
        sim = self.c.sim
        sim.call_at(sim._now, step._start)


class _Issue(_Step):
    """Issue one verb: the issuing core's charge, then the verb
    ``make(then)`` starts, which reports ``then(its value)``."""

    __slots__ = ("make",)

    def __init__(self, c: BaselineCoordinator, make, then):
        _Step.__init__(self, c, None, then)
        self.make = make

    def _start(self, _arg: None = None) -> None:
        self._issue(self._issued)

    def _issued(self, _arg: None) -> None:
        self.make(self.then)


class _Attempt(_Step):
    """One OCC attempt (§2.2.1): EXECUTE, the logic, VALIDATE, LOG to
    every backup, then ``then(True)`` at the commit point and the COMMIT
    phase in the background (its stages start at an entry at now, where
    the generator form spawned it); on a failed phase the abort cleanup,
    then ``then(False)``."""

    __slots__ = ("writes_by_shard", "todo")

    def _start(self, _arg: None = None) -> None:
        spec = self.txn.spec
        if spec.local_compute_us > 0:
            self.c.node.host_cores.run_then(spec.local_compute_us,
                                            self._execute)
        else:
            self._execute(None)

    def _fan_out(self, groups, hooks, then) -> None:
        """One step per shard of ``groups`` (``shard -> args``), the
        local hook's on this node's shard and the remote hook's on the
        others, each started at an entry at now; then
        ``then(results)``."""
        c = self.c
        own = c.node.node_id
        local, remote = hooks
        gather = Gather()
        for shard, args in groups.items():
            self._spawn((local if shard == own else remote)(
                self.txn, shard, *args, gather.slot()))
        gather.wait(then)

    # -- EXECUTE ------------------------------------------------------------

    def _execute(self, _arg: None) -> None:
        c = self.c
        spec = self.txn.spec
        self._fan_out(
            group_keys(spec.read_keys, spec.write_keys, c.cluster.shard_of),
            (c._local_execute, c._remote_execute), self._executed)

    def _executed(self, results) -> None:
        if not all(results):
            self._abort()
            return
        txn = self.txn
        cost = txn.spec.logic_cost_us
        if txn.read_only:
            self._validate()
        elif cost > 0:
            self.c.node.host_cores.run_then(cost, self._run_logic)
        else:
            self._run_logic(None)

    def _run_logic(self, _arg: None) -> None:
        self.txn.write_values = self.txn.run_logic()
        self._validate()

    # -- VALIDATE ------------------------------------------------------------

    def _validate(self) -> None:
        c = self.c
        spec = self.txn.spec
        write_set = set(spec.write_keys)
        to_check = [k for k in spec.read_keys if k not in write_set]
        if not to_check:
            self._validated(True)
            return
        self._fan_out(
            {shard: (keys,) for shard, (keys, _none) in group_keys(
                to_check, (), c.cluster.shard_of).items()},
            (c._local_validate, c._remote_validate), self._validated_all)

    def _validated_all(self, results) -> None:
        if not all(results):
            self.c.stats.inc("validate_conflicts")
            self._validated(False)
        else:
            self._validated(True)

    def _validated(self, ok: bool) -> None:
        if not ok:
            self._abort()
        elif self.txn.read_only:
            self._release()
        else:
            self._log()

    def _release(self) -> None:
        """A read-only transaction validated: OCC variants hold no
        locks, so it has committed."""
        self.then(True)

    # -- LOG ------------------------------------------------------------

    def _log(self) -> None:
        c, txn = self.c, self.txn
        self.writes_by_shard = writes_by_shard = group_values(
            txn.write_values, c.cluster.shard_of)
        pairs = [(shard, backup, writes)
                 for shard, writes in writes_by_shard.items()
                 for backup in c.cluster.backups_of(shard)]
        gather = Gather()
        for shard, backup, writes in pairs:
            self._spawn(_LogOne(c, txn, shard, backup, writes, gather.slot()))
        gather.wait(self._logged)

    def _logged(self, results) -> None:
        if not all(results):
            self._abort()
            return
        # commit point: writes are durable on all backups
        sim = self.c.sim
        sim.call_at(sim._now, self._commit)
        self.then(True)

    # -- COMMIT, in the background ------------------------------------------

    def _commit(self, _arg: None) -> None:
        self.todo = iter(self.writes_by_shard.items())
        self._commit_next()

    def _commit_next(self, _result=None) -> None:
        c, txn = self.c, self.txn
        for shard, writes in self.todo:
            if shard == c.node.node_id:
                c.node.host_cores.run_wall_then(
                    HOST_PER_KEY_US * max(1, len(writes)), self._commit_here)
            else:
                c._remote_commit(txn, shard, writes,
                                 self._commit_next)._start()
            return
        self._committed()

    def _commit_here(self, _arg: None) -> None:
        own = self.c.node.node_id
        self.c._apply_commit_at(own, self.txn, self.writes_by_shard[own])
        self._commit_next()

    def _committed(self) -> None:
        """Every shard's writes applied and unlocked."""

    # -- aborts ------------------------------------------------------------

    def _abort(self) -> None:
        self.todo = iter(list(self.txn.locked.items()))
        self._unlock_next()

    def _unlock_next(self, _result=None) -> None:
        c, txn = self.c, self.txn
        for shard, keys in self.todo:
            if shard == c.node.node_id:
                c._primary_table(shard).unlock_all(keys, txn.txn_id)
            else:
                c._remote_unlock(txn, shard, keys, self._unlock_next)._start()
                return
        txn.clear_locks()
        self.then(False)


def _applied_in_background(_arg: None) -> None:
    """A backup's background apply ends: nobody waits on it."""


class _LocalExecute(_Step):
    """EXECUTE on the coordinator's own shard: the per-key charge, then
    the locks key by key — each recorded as taken, so one lost to a
    conflict leaves the earlier ones held until the abort cleanup — and
    the reads."""

    __slots__ = ("shard", "rkeys", "wkeys")

    def __init__(self, c, txn, shard, rkeys, wkeys, then):
        _Step.__init__(self, c, txn, then)
        self.shard = shard
        self.rkeys = rkeys
        self.wkeys = wkeys

    def _start(self, _arg: None = None) -> None:
        self.c.node.host_cores.run_wall_then(
            HOST_PER_KEY_US * max(1, len(self.rkeys) + len(self.wkeys)),
            self._run)

    def _run(self, _arg: None) -> None:
        c, txn, shard = self.c, self.txn, self.shard
        table = c._primary_table(shard)
        for k in self.wkeys:
            if not table.try_lock(k, txn.txn_id):
                c.stats.inc("lock_conflicts")
                self.then(False)
                return
            txn.record_lock(shard, k)
        for k in self.rkeys:
            txn.read_values[k] = c._read_obj(shard, k)
        for k in self.wkeys:
            txn.read_values.setdefault(k, (None, c._read_obj(shard, k)[1]))
        self.then(True)


class _LocalValidate(_Step):
    """VALIDATE on the coordinator's own shard: the per-key charge, then
    the versions."""

    __slots__ = ("shard", "keys")

    def __init__(self, c, txn, shard, keys, then):
        _Step.__init__(self, c, txn, then)
        self.shard = shard
        self.keys = keys

    def _start(self, _arg: None = None) -> None:
        self.c.node.host_cores.run_wall_then(
            HOST_PER_KEY_US * len(self.keys), self._run)

    def _run(self, _arg: None) -> None:
        self.then(self.c._still_current(self.txn, self.shard, self.keys))


class _LogOne(_Step):
    """LOG of one shard's writes at one backup: applied in place when the
    backup is this node, else through the ``_remote_log`` hook."""

    __slots__ = ("shard", "backup", "writes", "versions")

    def __init__(self, c, txn, shard, backup, writes, then):
        _Step.__init__(self, c, txn, then)
        self.shard = shard
        self.backup = backup
        self.writes = writes

    def _start(self, _arg: None = None) -> None:
        c, txn = self.c, self.txn
        self.versions = {
            k: txn.read_values.get(k, (None, 0))[1] + 1 for k in self.writes
        }
        if self.backup == c.node.node_id:
            c.node.host_cores.run_wall_then(BASELINE_APPLY_US, self._applied_here)
        else:
            c._remote_log(txn, self.shard, self.backup, self.writes,
                          self._apply_at_backup, self.then)._start()

    def _apply_at_backup(self) -> bool:
        node = self.c.cluster.nodes[self.backup]
        table = node.tables[self.shard]
        writes = self.writes
        # background application charged to the backup's host cores
        node.host_cores.execute_wall(BASELINE_APPLY_US * max(1, len(writes)),
                                     _applied_in_background)
        versions = self.versions
        for k, v in writes.items():
            table.get_or_create(k, node.value_size).install(v, versions[k])
        return True

    def _applied_here(self, _arg: None) -> None:
        self._apply_at_backup()
        self.then(True)
