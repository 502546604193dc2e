"""DrTM+R baseline (§2.2.2): all-one-sided, lock-everything design.

Remote locking uses one-sided ATOMIC compare-and-swap; instead of
optimistic reads plus validation, the coordinator locks *every* key in
the transaction (reads included), reads values under lock, logs with
one-sided WRITEs, and commits with a WRITE of the value followed by an
ATOMIC unlock per key.  No validation phase exists.  The extra per-key
verbs are the cost that Figure 8 exposes.
"""

from __future__ import annotations

from functools import partial

from ..hw.params import HOST_PER_KEY_US
from ..sim.core import Gather
from .common import BaselineCoordinator, _Attempt, _LocalExecute, _Step

__all__ = ["DrTMR"]


class DrTMR(BaselineCoordinator):
    """Lock-all one-sided coordinator."""

    name = "drtmr"

    def _attempt(self, txn, then) -> None:
        _LockAllAttempt(self, txn, then)._start()

    # -- EXECUTE: CAS-lock every key, then READ each value --------------------

    def _remote_execute(self, txn, shard, rkeys, wkeys, then) -> _Step:
        return _Execute(self, txn, shard, rkeys, wkeys, then)

    def _local_execute(self, txn, shard, rkeys, wkeys, then) -> _Step:
        return _LocalLockAll(self, txn, shard, rkeys, wkeys, then)

    # -- COMMIT: WRITE value + ATOMIC unlock per key --------------------------

    def _remote_commit(self, txn, shard, writes, then) -> _Step:
        return _Commit(self, txn, shard, writes, then)

    def _atomic_unlock(self, txn, shard, k, then) -> None:
        """One ATOMIC releasing ``k`` at ``shard`` if ``txn`` holds it;
        ``then(whether it did)``."""
        self.node.rdma.atomic(
            self._rdma_to(shard), 8, then,
            on_target=partial(self._primary_table(shard).unlock_if_held, k,
                              txn.txn_id))

    def _unlock_read_keys(self, txn, shard, exclude, then) -> None:
        """Release what ``txn`` holds at ``shard`` outside ``exclude``:
        at once on this node's shard, else one ATOMIC after another."""
        keys = [k for k in txn.locked.get(shard, []) if k not in exclude]
        if shard == self.node.node_id:
            self._primary_table(shard).unlock_all(keys, txn.txn_id)
            then(None)
            return
        self._remote_unlock(txn, shard, keys, then)._start()

    # -- aborts ------------------------------------------------------------

    def _remote_unlock(self, txn, shard, keys, then) -> _Step:
        return _Unlock(self, txn, shard, keys, then)


class _LockAllAttempt(_Attempt):
    """An attempt that locked every key it touched: nothing to validate,
    and the read locks are released at the end — of a read-only
    transaction at once, of a writing one after its COMMIT phase."""

    __slots__ = ()

    def _validate(self) -> None:
        self._validated(True)

    def _release(self) -> None:
        self.todo = iter(list(self.txn.locked))
        self._release_next()

    def _release_next(self, _result=None) -> None:
        for shard in self.todo:
            self.c._unlock_read_keys(self.txn, shard, (), self._release_next)
            return
        self.txn.clear_locks()
        self.then(True)

    def _committed(self) -> None:
        # remaining read locks: read-only shards, plus the local shard's
        # read keys (remote written shards were handled by _remote_commit)
        self.todo = iter(list(self.txn.locked))
        self._unlock_rest()

    def _unlock_rest(self, _result=None) -> None:
        c, txn = self.c, self.txn
        for shard in self.todo:
            if shard == c.node.node_id:
                c._unlock_read_keys(txn, shard, txn.write_values,
                                    self._unlock_rest)
                return
            if shard not in self.writes_by_shard:
                c._unlock_read_keys(txn, shard, (), self._unlock_rest)
                return
        txn.clear_locks()


class _LocalLockAll(_LocalExecute):
    """EXECUTE on the coordinator's own shard: DrTM+R locks local keys
    too (via HTM on real hardware), reads included."""

    __slots__ = ("keys",)

    def _start(self, _arg: None = None) -> None:
        self.keys = list(dict.fromkeys(self.rkeys + self.wkeys))
        self.c.node.host_cores.run_wall_then(
            HOST_PER_KEY_US * max(1, len(self.keys)), self._run)

    def _run(self, _arg: None) -> None:
        c, txn, shard = self.c, self.txn, self.shard
        table = c._primary_table(shard)
        for k in self.keys:
            if not table.try_lock(k, txn.txn_id):
                c.stats.inc("lock_conflicts")
                self.then(False)
                return
            txn.record_lock(shard, k)
            txn.read_values[k] = c._read_obj(shard, k)
        self.then(True)


class _Execute(_Step):
    """EXECUTE at a remote primary: a CAS lock on every key, one issue
    after another (doorbell-batched in parallel), then a READ of each
    read-set value under lock, likewise."""

    __slots__ = ("shard", "rkeys", "wkeys", "keys", "gather", "i")

    def __init__(self, c, txn, shard, rkeys, wkeys, then):
        _Step.__init__(self, c, txn, then)
        self.shard = shard
        self.rkeys = rkeys
        self.wkeys = wkeys

    def _start(self, _arg: None = None) -> None:
        self.keys = list(dict.fromkeys(self.rkeys + self.wkeys))
        self.gather = Gather()
        self.i = 0
        self._issue(self._cas)

    def _cas(self, _arg: None) -> None:
        c, i = self.c, self.i
        c.node.rdma.atomic(
            c._rdma_to(self.shard), 8, self.gather.slot(),
            on_target=partial(self._lock_and_version, self.keys[i]))
        self.i = i = i + 1
        if i < len(self.keys):
            self._issue(self._cas)
        else:
            gather, self.gather = self.gather, None
            gather.wait(self._locked)

    def _lock_and_version(self, k):
        """The CAS at the target: ``k``'s version if the lock was
        taken, else None."""
        c, shard = self.c, self.shard
        if not c._primary_table(shard).try_lock(k, self.txn.txn_id):
            return None
        return c._read_obj(shard, k)[1]

    def _locked(self, versions) -> None:
        txn, shard = self.txn, self.shard
        failed = False
        for k, v in zip(self.keys, versions):
            if v is None:
                failed = True
            else:
                txn.record_lock(shard, k)
                txn.read_values[k] = (None, v)
        if failed:
            self.c.stats.inc("lock_conflicts")
            self.then(False)
        elif not self.rkeys:
            self.then(True)
        else:
            self.gather = Gather()
            self.i = 0
            self._issue(self._read)

    def _read(self, _arg: None) -> None:
        c, i = self.c, self.i
        k = self.rkeys[i]
        c.node.rdma.read(
            c._rdma_to(self.shard), c._obj_bytes(self.shard, k),
            self.gather.slot(), on_target=partial(self._value_of, k))
        self.i = i = i + 1
        if i < len(self.rkeys):
            self._issue(self._read)
        else:
            gather, self.gather = self.gather, None
            gather.wait(self._read_all)

    def _value_of(self, k):
        return self.c._read_obj(self.shard, k)[0]

    def _read_all(self, values) -> None:
        read_values = self.txn.read_values
        for k, value in zip(self.rkeys, values):
            read_values[k] = (value, read_values[k][1])
        self.then(True)


class _Commit(_Step):
    """COMMIT at a remote primary: one WRITE-then-unlock per key (each
    started at an entry at now), two issues per key, and once every key
    is done the shard's read locks."""

    __slots__ = ("shard", "writes", "gather", "left")

    def __init__(self, c, txn, shard, writes, then):
        _Step.__init__(self, c, txn, then)
        self.shard = shard
        self.writes = writes

    def _start(self, _arg: None = None) -> None:
        c, txn, shard = self.c, self.txn, self.shard
        self.gather = gather = Gather()
        for k, v in self.writes.items():
            self._spawn(_CommitOne(c, txn, shard, k, v, gather.slot()))
        self.left = 2 * len(self.writes)
        self._issued(None)

    def _issued(self, _arg: None) -> None:
        if self.left:
            self.left -= 1
            self._issue(self._issued)
        else:
            gather, self.gather = self.gather, None
            gather.wait(self._written)

    def _written(self, _values) -> None:
        self.c._unlock_read_keys(self.txn, self.shard, set(self.writes),
                                 self.then)


class _CommitOne(_Step):
    """One key's COMMIT: a WRITE of the updated fields plus the version
    word, then the ATOMIC unlock."""

    __slots__ = ("shard", "key", "value")

    def __init__(self, c, txn, shard, key, value, then):
        _Step.__init__(self, c, txn, then)
        self.shard = shard
        self.key = key
        self.value = value

    def _start(self, _arg: None = None) -> None:
        c = self.c
        c.node.rdma.write(
            c._rdma_to(self.shard), c._write_bytes(self.txn) + 16,
            self._written, on_target=self._install)

    def _install(self) -> None:
        c = self.c
        c._primary_table(self.shard).get_or_create(
            self.key, c.cluster.value_size).commit_write(self.value)

    def _written(self, _arg: None) -> None:
        self.c._atomic_unlock(self.txn, self.shard, self.key, self.then)


class _Unlock(_Step):
    """Release ``keys`` at a remote primary: one issue and one ATOMIC
    after another."""

    __slots__ = ("shard", "keys", "i")

    def __init__(self, c, txn, shard, keys, then):
        _Step.__init__(self, c, txn, then)
        self.shard = shard
        self.keys = keys
        self.i = 0

    def _start(self, _arg: None = None) -> None:
        self._next(None)

    def _next(self, _result=None) -> None:
        if self.i == len(self.keys):
            self.then(None)
        else:
            self._issue(self._issued)

    def _issued(self, _arg: None) -> None:
        k = self.keys[self.i]
        self.i += 1
        self.c._atomic_unlock(self.txn, self.shard, k, self._next)
