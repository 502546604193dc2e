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

from functools import partial
from typing import List

from ..core.messages import APP_HEADER, PER_KEY, PER_VERSION
from ..hw.params import HOST_PER_KEY_US
from ..sim.core import Gather
from .common import BaselineCoordinator, OBJ_HEADER, _Step

__all__ = ["DrTMH", "DrTMH_NC"]


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

    # -- EXECUTE ------------------------------------------------------------

    def _remote_execute(self, txn, shard, rkeys, wkeys, then) -> _Step:
        return _Execute(self, txn, shard, rkeys, wkeys, then)

    # -- VALIDATE ------------------------------------------------------------

    def _remote_validate(self, txn, shard, keys, then) -> _Step:
        return _Validate(self, txn, shard, keys, then)


class DrTMH_NC(DrTMH):
    """DrTM+H with the coordinator's remote-address cache disabled: every
    remote lookup traverses the chained buckets over one-sided READs."""

    name = "drtmh_nc"
    address_cache = False


class _ReadChain(_Step):
    """The sequential one-sided READ roundtrips of one remote lookup, the
    last one (of ``last_bytes``, if given) running ``observe`` at the
    target; ``then`` gets what it observed."""

    __slots__ = ("shard", "key", "observe", "last_bytes", "sizes", "i")

    def __init__(self, c, shard, key, observe, last_bytes, then):
        _Step.__init__(self, c, None, then)
        self.shard = shard
        self.key = key
        self.observe = observe
        self.last_bytes = last_bytes

    def _start(self, _arg: None = None) -> None:
        self.sizes = sizes = self.c._read_roundtrips(self.shard, self.key)
        if self.last_bytes is not None:
            sizes[-1] = self.last_bytes
        self.i = 0
        self._issue(self._issued)

    def _issued(self, _arg: None) -> None:
        c = self.c
        last = self.i == len(self.sizes) - 1
        c.node.rdma.read(
            c._rdma_to(self.shard), self.sizes[self.i], self._landed,
            on_target=self.observe if last else None)

    def _landed(self, value) -> None:
        self.i += 1
        if self.i < len(self.sizes):
            self._issue(self._issued)
        else:
            self.then(value)


class _Execute(_Step):
    """EXECUTE at a remote primary: every key fetched with one-sided
    READ(s) — value + version (+ lock word), in parallel
    (doorbell-batched) — then, for the write-set keys, a *separate* lock
    RPC (writes go over RPC in DrTM+H)."""

    __slots__ = ("shard", "rkeys", "wkeys", "keys")

    def __init__(self, c, txn, shard, rkeys, wkeys, then):
        _Step.__init__(self, c, txn, then)
        self.shard = shard
        self.rkeys = rkeys
        self.wkeys = wkeys

    def _start(self, _arg: None = None) -> None:
        c, shard = self.c, self.shard
        self.keys = keys = list(dict.fromkeys(self.rkeys + self.wkeys))
        gather = Gather()
        for k in keys:
            self._spawn(_ReadChain(c, shard, k,
                                   partial(c._read_obj, shard, k), None,
                                   gather.slot()))
        gather.wait(self._read)

    def _read(self, values) -> None:
        self.txn.read_values.update(zip(self.keys, values))
        if not self.wkeys:
            self.then(True)
        else:
            self._issue(self._issued)

    def _issued(self, _arg: None) -> None:
        c, wkeys = self.c, self.wkeys
        req = APP_HEADER + (PER_KEY + PER_VERSION) * len(wkeys)
        c.node.rdma.rpc(
            c._rdma_to(self.shard), req, APP_HEADER, self._locked,
            handler_ref_us=HOST_PER_KEY_US * len(wkeys),
            on_target=self._lock_at_versions,
        )

    def _lock_at_versions(self) -> bool:
        """The lock RPC's handler: it verifies that the versions read
        earlier are still current, so locking doubles as write-set
        validation."""
        c, txn, shard, wkeys = self.c, self.txn, self.shard, self.wkeys
        table = c._primary_table(shard)
        if not table.lock_all(wkeys, txn.txn_id):
            return False
        if c._still_current(txn, shard, wkeys):
            return True
        table.unlock_all(wkeys, txn.txn_id)
        return False

    def _locked(self, ok: bool) -> None:
        if not ok:
            self.c.stats.inc("lock_conflicts")
            self.then(False)
            return
        txn, shard = self.txn, self.shard
        for k in self.wkeys:
            txn.record_lock(shard, k)
        self.then(True)


class _Validate(_Step):
    """VALIDATE at a remote primary: each key's version word (+lock)
    re-read with one-sided READ(s), in parallel, a version-only read on
    the final hop."""

    __slots__ = ("shard", "keys")

    def __init__(self, c, txn, shard, keys, then):
        _Step.__init__(self, c, txn, then)
        self.shard = shard
        self.keys = keys

    def _start(self, _arg: None = None) -> None:
        c, txn, shard = self.c, self.txn, self.shard
        gather = Gather()
        for k in self.keys:
            self._spawn(_ReadChain(c, shard, k,
                                   partial(c._still_current, txn, shard, (k,)),
                                   OBJ_HEADER, gather.slot()))
        gather.wait(self._read)

    def _read(self, values) -> None:
        self.then(all(values))
