"""FaSST baseline (§2.2.2): all remote operations are two-sided RPCs.

No specialized remote data structure is needed — lookups and insertions
happen locally at the RPC handler — and FaSST consolidates multiple
operations into one RPC (read + lock in a single execution-phase message
per shard).  The cost is host CPU at every node: each RPC burns a target
host core, which is what caps FaSST's throughput in Figure 8 (and its
thread count in Table 3).
"""

from __future__ import annotations

from functools import partial

from ..core.messages import APP_HEADER, PER_KEY, PER_VERSION
from ..store.log import record_size_bytes
from .common import BaselineCoordinator, OBJ_HEADER, _Step

__all__ = ["FaSST"]


class FaSST(BaselineCoordinator):
    """All-RPC coordinator."""

    name = "fasst"

    # -- EXECUTE: one consolidated read+lock RPC per shard ------------------

    def _remote_execute(self, txn, shard, rkeys, wkeys, then) -> _Step:
        def handler():
            if not self._primary_table(shard).lock_all(wkeys, txn.txn_id):
                return None
            return {k: self._read_obj(shard, k) for k in wkeys + rkeys}

        def took(result):
            if result is None:
                self.stats.inc("lock_conflicts")
                then(False)
                return
            for k, (value, version) in result.items():
                txn.read_values.setdefault(k, (value, version))
            for k in wkeys:
                txn.record_lock(shard, k)
            then(True)

        n = len(set(rkeys) | set(wkeys))
        req = APP_HEADER + PER_KEY * n
        resp = APP_HEADER + n * (self.cluster.value_size + OBJ_HEADER)
        return self._rpc(shard, req, resp, n, handler, took)

    # -- VALIDATE: one RPC per shard ------------------------------------------

    def _remote_validate(self, txn, shard, keys, then) -> _Step:
        req = APP_HEADER + (PER_KEY + PER_VERSION) * len(keys)
        return self._rpc(shard, req, APP_HEADER, len(keys),
                         partial(self._still_current, txn, shard, keys), then)

    # -- LOG: RPC to each backup (no one-sided verbs at all) -----------------

    def _remote_log(self, txn, shard, backup, writes, apply_fn,
                    then) -> _Step:
        req = record_size_bytes(len(writes), self._write_bytes(txn))
        return self._rpc(backup, req, APP_HEADER, len(writes), apply_fn, then)
