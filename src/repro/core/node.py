"""A Xenic node: host cores + on-path SmartNIC + replicated data stores.

Each node is the primary replica of one shard (shard id == node id), a
backup replica for ``replication_factor - 1`` other shards, and a
transaction coordinator (§4).  The pieces assembled here mirror Figure 6:

* host application cores (coordinator threads A/B),
* host Robinhood-worker cores (E) draining the host-memory log,
* the SmartNIC (C/D) with its caching index,
* the PCIe message channel between them.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

from ..hw.cpu import CoreGroup
from ..hw.network import Fabric
from ..hw.nic import SmartNic
from ..hw.pcie import PcieChannel
from ..sim.core import Simulator
from ..sim.resources import Semaphore
from ..store.log import HostLog, LogRecord
from ..store.nic_index import NicIndex
from ..store.robinhood import SEGMENT_SIZE, RobinhoodTable
from .config import XenicConfig
from .txn import TOMBSTONE, make_txn_id

__all__ = ["ReplicaPlacement", "XenicNode"]


class ReplicaPlacement:
    """Where a node sits in the replication ring, in every system: node
    ``s`` is the primary of shard ``s`` and the next
    ``replication_factor - 1`` nodes round-robin back it up.  Also names
    the transactions the node coordinates."""

    def __init__(self, node_id: int, n_nodes: int, replication_factor: int):
        self.node_id = node_id
        self.n_nodes = n_nodes
        self.replication_factor = min(replication_factor, n_nodes)
        self.txn_seq = 0

    def replicated_shards(self) -> List[int]:
        """Shards this node holds a replica of (own + backed-up)."""
        return [(self.node_id - i) % self.n_nodes
                for i in range(self.replication_factor)]

    def backups_of(self, shard: int) -> List[int]:
        """Backup node ids for ``shard`` (primary is node ``shard``)."""
        return [(shard + i) % self.n_nodes
                for i in range(1, self.replication_factor)]

    def next_txn_id(self) -> int:
        self.txn_seq += 1
        return make_txn_id(self.node_id, self.txn_seq)


class XenicNode(ReplicaPlacement):
    """One server in a Xenic cluster."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        node_id: int,
        n_nodes: int,
        config: XenicConfig,
        keys_per_shard: int,
        value_size: int = 64,
    ):
        super().__init__(node_id, n_nodes, config.replication_factor)
        self.sim = sim
        self.config = config
        self.value_size = value_size

        hw = config.hardware
        self.host_app_cores = CoreGroup(
            sim, hw.host.cpu, cores=config.host_app_threads,
            name="n%d.app" % node_id,
        )
        self.worker_cores = CoreGroup(
            sim, hw.host.cpu, cores=config.host_worker_threads,
            name="n%d.worker" % node_id,
        )
        self.nic = SmartNic(
            sim, fabric, node_id,
            params=hw.nic,
            nic_threads=config.nic_threads,
            aggregation=config.ethernet_aggregation,
            name="n%d.nic" % node_id,
        )
        self.pcie = PcieChannel(
            sim, hw.nic,
            aggregation=config.ethernet_aggregation,
            name="n%d.pcie" % node_id,
        )

        # shard tables: shard -> RobinhoodTable (primary shard == node_id,
        # plus the shards this node backs up)
        capacity = self._table_capacity(keys_per_shard, config)
        self.tables: Dict[int, RobinhoodTable] = {}
        for shard in self.replicated_shards():
            self.tables[shard] = RobinhoodTable(
                capacity, dm=config.dm, hash_salt=shard)
        # NIC caching index per shard this node is *primary* for (only its
        # own shard initially; recovery can promote it for others)
        self.indexes: Dict[int, NicIndex] = {
            node_id: NicIndex(
                self.tables[node_id],
                cache_capacity=config.nic_cache_capacity,
                value_size=value_size,
            )
        }
        self.log = HostLog(capacity_records=config.log_capacity)
        self.log_signal = Semaphore(sim, name="n%d.log" % node_id)
        self.log.set_ack_handler(self._on_log_ack)
        # Read-through view of the own-shard commit records the NIC has
        # appended to host memory but the workers have not applied yet:
        # host coordinator threads consult it so local transactions see
        # fresh values (the log ring lives in host DRAM, §4.2 step 7).
        self.pending_local: Dict[int, tuple] = {}

        # filled in by XenicProtocol.install()
        self.protocol: Optional[Any] = None

    @staticmethod
    def _table_capacity(keys_per_shard: int, config: XenicConfig) -> int:
        raw = max(int(keys_per_shard / config.table_fill), SEGMENT_SIZE)
        # round up to a segment multiple
        return int(math.ceil(raw / SEGMENT_SIZE)) * SEGMENT_SIZE

    # -- placement ------------------------------------------------------------

    @property
    def index(self) -> NicIndex:
        """The NIC index of this node's own shard."""
        return self.indexes[self.node_id]

    def index_for(self, shard: int) -> NicIndex:
        idx = self.indexes.get(shard)
        if idx is None:
            raise RuntimeError(
                "node %d is not primary for shard %d" % (self.node_id, shard)
            )
        return idx

    def promote_to_primary(self, shard: int) -> NicIndex:
        """Recovery: build a NIC index over this node's replica of
        ``shard``, making it the new primary (lock state starts empty and
        is rebuilt from the logs, §4.2.1)."""
        if shard not in self.tables:
            raise RuntimeError(
                "node %d holds no replica of shard %d" % (self.node_id, shard)
            )
        idx = NicIndex(
            self.tables[shard],
            cache_capacity=self.config.nic_cache_capacity,
            value_size=self.value_size,
        )
        self.indexes[shard] = idx
        return idx

    # -- log application ------------------------------------------------------------

    def append_log(self, record: LogRecord) -> bool:
        ok = self.log.append(record)
        if ok:
            self.log_signal.up()
        return ok

    def note_pending_commit(self, record: LogRecord) -> None:
        """Called by the protocol when a commit record for this node's own
        shard lands in host memory (before workers apply it)."""
        if record.shard != self.node_id:
            return
        for key, value, version in record.writes:
            cur = self.pending_local.get(key)
            if cur is None or version >= cur[1]:
                self.pending_local[key] = (value, version)

    def read_local(self, key: int):
        """Host-side read of an own-shard object: the freshest of the
        applied table value and any unapplied commit record.  An absent
        object reads as None at the NIC index's version, which a delete's
        tombstone advanced past the host copy it removed."""
        pending = self.pending_local.get(key)
        obj = self.tables[self.node_id].get_object(key)
        if pending is not None and (obj is None or pending[1] > obj.version):
            return pending
        if obj is None:
            return None, self.index.read_version(key)
        return obj.value, obj.version

    def _on_log_ack(self, record: LogRecord) -> None:
        # committed primary writes may now be evicted from the NIC cache
        if record.kind == "commit" and record.shard in self.indexes:
            idx = self.indexes[record.shard]
            for key, _value, _version in record.writes:
                idx.log_acked(key)
        if record.kind == "commit" and record.shard == self.node_id:
            for key, _value, version in record.writes:
                cur = self.pending_local.get(key)
                if cur is not None and cur[1] <= version:
                    del self.pending_local[key]

    def start_worker(self) -> None:
        """Start one host Robinhood-worker thread (:class:`_Worker`).  The
        cluster starts ``host_worker_threads`` of these per node, one per
        worker core, so a core is always free when a batch starts."""
        _Worker(self)

    def _apply_record(self, record: LogRecord) -> None:
        table = self.tables.get(record.shard)
        if table is None:
            raise RuntimeError(
                "node %d has no replica of shard %d" % (self.node_id, record.shard)
            )
        for key, value, version in record.writes:
            obj = table.get_object(key)
            # Reordered log application (fault injection can deliver LOG
            # records out of order): never roll a replica back — a record
            # older than the applied version is a no-op.
            if obj is not None and version < obj.version:
                continue
            if value is TOMBSTONE:
                if obj is not None:
                    table.delete(key)
                continue
            if obj is None or obj.shared:  # absent, or not yet our own
                obj = table.get_or_create(key, self.value_size)
            obj.install(value, version)


class _Worker:
    """One host Robinhood-worker thread: poll the log, apply write sets
    to the replica tables off the critical path (§4.2 step 7).

    A callback chain on the events a looping worker process would wait
    on — its start entry, each signal it blocks on, each batch's end —
    so every push lands at the same instant and in the same same-instant
    order.  A signal already raised is taken in the loop of
    :meth:`_wait` (``try_down``), not by a nested call, so a long
    backlog of signals costs no stack.

    Delay fusion: a batch charges all its per-record apply costs up
    front and sleeps to one deadline instead of one timeout per record.
    Poll instants and batch contents are those of records applied one
    after another — ``CoreGroup.try_hold`` reproduces their deadline and
    core accounting exactly — only the table applies and log acks shift
    from intermediate instants to the batch end.  Those are
    off-critical-path by design: reads overlay ``pending_local`` until
    the ack (§4.2 step 7), replica application is version-idempotent,
    and the NIC cache pins committed writes until ``log_acked``.  A fault
    plan's NIC stalls never touch host worker cores."""

    __slots__ = ("node", "batch")

    def __init__(self, node: XenicNode):
        self.node = node
        self.batch = None
        sim = node.sim
        sim.call_at(sim._now, self._started)

    def _started(self, _arg: None) -> None:
        self._wait()

    def _wait(self) -> None:
        """Block on the log signal; drain at once while it is raised."""
        signal = self.node.log_signal
        while signal.try_down():
            if self._drain():
                return
        signal.down(self._signalled)

    def _signalled(self, _arg: None) -> None:
        if not self._drain():
            self._wait()

    def _drain(self) -> bool:
        """Apply polled batches until the log is empty (False) or one
        batch holds its core past now (True: :meth:`_applied` resumes)."""
        node = self.node
        log = node.log
        cores = node.worker_cores
        apply_us = node.config.worker_apply_us
        while log.pending:
            batch = log.poll(max_records=4)
            if not batch:
                break
            end = cores.try_hold([apply_us * max(1, len(record.writes))
                                  for record in batch])
            if end > node.sim._now:
                self.batch = batch
                node.sim.call_at(end, self._applied)
                return True
            self._apply(batch)
        return False

    def _applied(self, _arg: None) -> None:
        batch, self.batch = self.batch, None
        self._apply(batch)
        if not self._drain():
            self._wait()

    def _apply(self, batch) -> None:
        node = self.node
        node.worker_cores.pool.release()
        for record in batch:
            node._apply_record(record)
            node.log.ack(record)
