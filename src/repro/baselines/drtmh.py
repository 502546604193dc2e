"""DrTM+H and DrTM+H-NC baselines (§2.2.2, §5.1).

DrTM+H is the hybrid design: one-sided READs for execution-phase reads and
validation (one roundtrip thanks to the coordinator's remote-address
cache), one-sided WRITEs for logging, and two-sided RPCs for locking and
committing writes.

The NC ("no remote caching") variant disables the address cache, so every
remote read and validation traverses the chained bucket structure with one
one-sided READ per bucket — the read amplification and extra roundtrips
quantified in Table 2 and exposed in Figure 8a.
"""

from __future__ import annotations

from typing import List

from .common import BaselineCoordinator, HOST_PER_KEY_US, OBJ_HEADER

__all__ = ["DrTMH", "DrTMH_NC"]

RPC_HEADER = 18
PER_KEY = 10


class DrTMH(BaselineCoordinator):
    """Hybrid one-sided/two-sided design with remote address caching."""

    name = "drtmh"
    address_cache = True

    # -- reads ------------------------------------------------------------

    def _read_roundtrips(self, shard: int, key: int) -> List[int]:
        """Byte sizes of the sequential one-sided READs needed for one
        remote lookup (one entry per roundtrip)."""
        if self.address_cache:
            return [self._obj_bytes(shard, key)]
        table = self.cluster.nodes[shard].tables[shard]
        res = table.lookup(key)
        per_bucket = table.b * (self.cluster.value_size + OBJ_HEADER)
        return [per_bucket] * max(1, res.roundtrips)

    def _read_chain(self, shard, key, observe, last_bytes=None):
        """The sequential READ roundtrips of one remote lookup, the last
        one (of ``last_bytes``, if given) running ``observe`` at the
        target; returns what it observed."""
        sizes = self._read_roundtrips(shard, key)
        if last_bytes is not None:
            sizes[-1] = last_bytes
        target = self._rdma_to(shard)
        for i, nbytes in enumerate(sizes):
            yield from self._issue()
            last = i == len(sizes) - 1
            seen = yield self.node.rdma.read(
                target, nbytes, on_target=observe if last else None
            )
        return seen

    # -- EXECUTE ------------------------------------------------------------

    def _remote_execute(self, txn, shard, rkeys, wkeys):
        # every key is first fetched with one-sided READ(s): value +
        # version (+ lock word), in parallel (doorbell-batched)
        all_keys = list(dict.fromkeys(rkeys + wkeys))
        read_evs = [
            self.sim.spawn(
                self._read_chain(shard, k,
                                 lambda k=k: self._read_obj(shard, k)),
                name="osr")
            for k in all_keys
        ]
        results = yield self.sim.all_of(read_evs)
        txn.read_values.update(zip(all_keys, results))
        # write-set keys then need a *separate* lock RPC (writes go over
        # RPC in DrTM+H); the handler verifies the version read earlier is
        # still current, so locking doubles as write-set validation
        if not wkeys:
            return True

        def lock_at_versions():
            table = self._primary_table(shard)
            if not table.lock_all(wkeys, txn.txn_id):
                return False
            if self._still_current(txn, shard, wkeys):
                return True
            table.unlock_all(wkeys, txn.txn_id)
            return False

        yield from self._issue()
        req = RPC_HEADER + (PER_KEY + 6) * len(wkeys)
        ok = yield self.node.rdma.rpc(
            self._rdma_to(shard), req, RPC_HEADER,
            handler_ref_us=HOST_PER_KEY_US * len(wkeys),
            on_target=lock_at_versions,
        )
        if not ok:
            self.stats.inc("lock_conflicts")
            return False
        for k in wkeys:
            txn.record_lock(shard, k)
        return True

    # -- VALIDATE ------------------------------------------------------------

    def _remote_validate(self, txn, shard, keys):
        # re-read the version word (+lock) with one-sided READ(s), a
        # version-only read on the final hop
        evs = [
            self.sim.spawn(
                self._read_chain(
                    shard, k,
                    lambda k=k: self._still_current(txn, shard, (k,)),
                    last_bytes=OBJ_HEADER),
                name="val1")
            for k in keys
        ]
        results = yield self.sim.all_of(evs)
        return all(results)

    # -- COMMIT ------------------------------------------------------------

    def _remote_commit(self, txn, shard, writes):
        yield from self._issue()
        req = RPC_HEADER + len(writes) * (PER_KEY + self._write_bytes(txn))
        yield self.node.rdma.rpc(
            self._rdma_to(shard), req, RPC_HEADER,
            handler_ref_us=HOST_PER_KEY_US * len(writes),
            on_target=lambda: self._apply_commit_at(shard, txn, writes),
        )

    # -- aborts ------------------------------------------------------------

    def _remote_unlock(self, txn, shard, keys):
        yield from self._issue()
        req = RPC_HEADER + PER_KEY * len(keys)
        yield self.node.rdma.rpc(
            self._rdma_to(shard), req, RPC_HEADER,
            handler_ref_us=HOST_PER_KEY_US * len(keys),
            on_target=lambda: self._primary_table(shard).unlock_all(
                keys, txn.txn_id),
        )


class DrTMH_NC(DrTMH):
    """DrTM+H with the coordinator's remote-address cache disabled: every
    remote lookup traverses the chained buckets over one-sided READs."""

    name = "drtmh_nc"
    address_cache = False
