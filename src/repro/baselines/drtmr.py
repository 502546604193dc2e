"""DrTM+R baseline (§2.2.2): all-one-sided, lock-everything design.

Remote locking uses one-sided ATOMIC compare-and-swap; instead of
optimistic reads plus validation, the coordinator locks *every* key in
the transaction (reads included), reads values under lock, logs with
one-sided WRITEs, and commits with a WRITE of the value followed by an
ATOMIC unlock per key.  No validation phase exists.  The extra per-key
verbs are the cost that Figure 8 exposes.
"""

from __future__ import annotations

from .common import BaselineCoordinator, HOST_PER_KEY_US

__all__ = ["DrTMR"]


class DrTMR(BaselineCoordinator):
    """Lock-all one-sided coordinator."""

    name = "drtmr"

    # -- EXECUTE: CAS-lock every key, then READ each value --------------------

    def _remote_execute(self, txn, shard, rkeys, wkeys):
        all_keys = list(dict.fromkeys(rkeys + wkeys))
        target = self._rdma_to(shard)
        table = self._primary_table(shard)
        # CAS-lock every key (doorbell-batched in parallel)
        cas_evs = []
        for k in all_keys:
            def cas(k=k):
                if not table.try_lock(k, txn.txn_id):
                    return None
                return self._read_obj(shard, k)[1]

            yield from self._issue()
            cas_evs.append(self.node.rdma.atomic(target, 8, on_target=cas))
        versions = yield self.sim.all_of(cas_evs)
        failed = [k for k, v in zip(all_keys, versions) if v is None]
        for k, v in zip(all_keys, versions):
            if v is not None:
                txn.record_lock(shard, k)
                txn.read_values[k] = (None, v)
        if failed:
            self.stats.inc("lock_conflicts")
            return False
        # READ each value under lock, in parallel
        read_evs = []
        for k in rkeys:
            yield from self._issue()
            read_evs.append(self.node.rdma.read(
                target, self._obj_bytes(shard, k),
                on_target=lambda k=k: self._read_obj(shard, k)[0]
            ))
        if read_evs:
            values = yield self.sim.all_of(read_evs)
            for k, value in zip(rkeys, values):
                txn.read_values[k] = (value, txn.read_values[k][1])
        return True

    def _local_execute(self, txn, shard, rkeys, wkeys):
        """DrTM+R locks local keys too (via HTM on real hardware)."""
        all_keys = list(dict.fromkeys(rkeys + wkeys))
        yield from self.node.host_cores.run_wall(
            HOST_PER_KEY_US * max(1, len(all_keys))
        )
        table = self._primary_table(shard)
        for k in all_keys:
            if not table.try_lock(k, txn.txn_id):
                self.stats.inc("lock_conflicts")
                return False
            txn.record_lock(shard, k)
            txn.read_values[k] = self._read_obj(shard, k)
        return True

    # -- VALIDATE: none (everything is locked) --------------------------------

    def _validate_phase(self, txn):
        return True
        yield  # pragma: no cover

    # -- COMMIT: WRITE value + ATOMIC unlock per key --------------------------

    def _remote_commit(self, txn, shard, writes):
        evs = [
            self.sim.spawn(self._commit_one(txn, shard, k, v), name="cmt1")
            for k, v in writes.items()
        ]
        for _ in evs:
            yield from self._issue()
            yield from self._issue()
        yield self.sim.all_of(evs)
        # release read locks on this shard (keys locked but not written)
        yield from self._unlock_read_keys(txn, shard, exclude=set(writes))

    def _commit_one(self, txn, shard, k, v):
        target = self._rdma_to(shard)
        table = self._primary_table(shard)
        # DrTM+R writes back the updated fields plus the version word
        yield self.node.rdma.write(
            target, self._write_bytes(txn) + 16,
            on_target=lambda: table.get_or_create(
                k, self.cluster.value_size).commit_write(v),
        )
        yield self._atomic_unlock(txn, shard, k)

    def _atomic_unlock(self, txn, shard, k):
        """One ATOMIC releasing ``k`` at ``shard`` if ``txn`` holds it."""
        return self.node.rdma.atomic(
            self._rdma_to(shard), 8,
            on_target=lambda: self._primary_table(shard).unlock_if_held(
                k, txn.txn_id))

    def _unlock_read_keys(self, txn, shard, exclude):
        keys = [k for k in txn.locked.get(shard, []) if k not in exclude]
        if shard == self.node.node_id:
            self._primary_table(shard).unlock_all(keys, txn.txn_id)
            return
        yield from self._remote_unlock(txn, shard, keys)

    def _release_read_locks(self, txn):
        """Read-only transactions must still unlock everything."""
        for shard in list(txn.locked):
            yield from self._unlock_read_keys(txn, shard, exclude=())
        txn.clear_locks()

    # -- aborts ------------------------------------------------------------

    def _remote_unlock(self, txn, shard, keys):
        for k in keys:
            yield from self._issue()
            yield self._atomic_unlock(txn, shard, k)

    def _commit_phase(self, txn, writes_by_shard):
        yield from super()._commit_phase(txn, writes_by_shard)
        # remaining read locks: read-only shards, plus the local shard's
        # read keys (remote written shards were handled by _remote_commit)
        for shard in list(txn.locked):
            if shard == self.node.node_id:
                yield from self._unlock_read_keys(txn, shard,
                                                  exclude=txn.write_values)
            elif shard not in writes_by_shard:
                yield from self._unlock_read_keys(txn, shard, exclude=())
        txn.clear_locks()
