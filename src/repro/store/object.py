"""Versioned key-value objects and lock words.

Every object in the database carries the OCC metadata of §2.2.1: a version
counter incremented on each committed write and a lock word naming the
transaction currently holding the write lock (or ``None``).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Tuple

__all__ = ["VersionedObject", "Participant", "ObjectTable", "mix64", "share"]

# Objects larger than this live outside the host hash table behind a
# pointer (§4.1.2), turning one DMA lookup into a region read + a
# single-object read.
LARGE_OBJECT_THRESHOLD = 256


def mix64(x: int) -> int:
    """SplitMix64 finalizer: a fast, well-distributed 64-bit mixer used as
    the hash function for all table structures (keys are integers)."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


class VersionedObject:
    """A database object with OCC metadata.

    A ``shared`` object is held by several replica tables at once (see
    :func:`~repro.store.replicas.load_replicas`); its mutators raise, so
    a table writes only the private copy :meth:`ObjectTable.writable`
    takes first.  The flag is never cleared: the last table still holding
    an original copies it too on its next write."""

    __slots__ = ("key", "value", "size", "version", "lock_owner", "shared")

    def __init__(self, key: int, value: Any = None, size: int = 8):
        self.key = key
        self.value = value
        self.size = size
        self.version = 0
        self.lock_owner: Optional[int] = None
        self.shared = False

    @property
    def locked(self) -> bool:
        return self.lock_owner is not None

    def locked_by_other(self, txn_id: int) -> bool:
        """True when a transaction other than ``txn_id`` holds the lock."""
        return self.lock_owner is not None and self.lock_owner != txn_id

    @property
    def is_large(self) -> bool:
        return self.size > LARGE_OBJECT_THRESHOLD

    def _refuse_shared(self) -> None:
        raise RuntimeError(
            "object %d is shared between replicas: write it through its "
            "table's write verbs" % self.key
        )

    def try_lock(self, txn_id: int) -> bool:
        """Acquire the write lock; re-entrant for the same transaction."""
        if self.shared:
            self._refuse_shared()
        if self.lock_owner is None or self.lock_owner == txn_id:
            self.lock_owner = txn_id
            return True
        return False

    def unlock_if_held(self, txn_id: int) -> bool:
        """Release the lock only if ``txn_id`` still owns it; returns
        whether it did."""
        if self.shared:
            self._refuse_shared()
        if self.lock_owner != txn_id:
            return False
        self.lock_owner = None
        return True

    def copy(self) -> "VersionedObject":
        """A private object in the same state (the value is shared)."""
        dup = VersionedObject(self.key, self.value, self.size)
        dup.version = self.version
        dup.lock_owner = self.lock_owner
        return dup

    def commit_write(self, value: Any) -> None:
        """Install a new value and bump the version (lock must be held)."""
        if self.shared:
            self._refuse_shared()
        self.value = value
        self.version += 1

    def install(self, value: Any, version: int) -> None:
        """Install a replicated write at the version its record carries."""
        if self.shared:
            self._refuse_shared()
        self.value = value
        self.version = version


def share(objs: Iterable[VersionedObject]) -> None:
    """Mark ``objs`` as held by more than one replica table."""
    for obj in objs:
        obj.shared = True


class Participant:
    """The all-or-nothing forms of the OCC participant's lock verbs
    (§2.2.1), for whatever holds the lock words: a holder supplies
    ``try_lock(key, txn_id)`` (re-entrant) and ``unlock_if_held(key,
    txn_id)``, and its own ``reads_current``."""

    def lock_all(self, keys: Iterable[int], txn_id: int) -> bool:
        """Write-lock every key for ``txn_id``, or none: on the first key
        it cannot take, release the ones taken and return False."""
        taken = []
        for k in keys:
            if not self.try_lock(k, txn_id):
                self.unlock_all(taken, txn_id)
                return False
            taken.append(k)
        return True

    def unlock_all(self, keys: Iterable[int], txn_id: int) -> int:
        """Release every key ``txn_id`` still holds; returns how many."""
        return sum([self.unlock_if_held(k, txn_id) for k in keys])


class ObjectTable(Participant):
    """The participant over lock words kept in host memory: what
    :class:`~repro.store.nic_index.NicIndex` is over NIC-resident ones,
    for any table that keeps its objects (:class:`VersionedObject`) in an
    ``_objects`` map and has ``insert``.  A key the table does not hold
    can be neither locked nor validated (the NIC index, fronting the
    transactional insert path, treats it as unlocked at version 0).

    Replicas of a shard may hold the same ``shared`` object; every write
    reaches an object through :meth:`writable`, which first swaps a
    shared one for this table's own copy.  The ``_objects`` map is the
    table's contents even before its slot layout is built (a table
    builds that on first use), so membership and object reads never
    touch the layout, and a replica copies only the map."""

    def get_object(self, key: int) -> Optional[VersionedObject]:
        """The object stored under ``key``, for reading only."""
        return self._objects.get(key)

    def objects(self) -> Iterator[VersionedObject]:
        return iter(self._objects.values())

    def writable(self, key: int) -> Optional[VersionedObject]:
        """The object stored under ``key`` as this table's own, or None:
        a shared one is replaced by a private copy first."""
        obj = self._objects.get(key)
        if obj is not None and obj.shared:
            obj = self._objects[key] = obj.copy()
        return obj

    # The write verbs fetch the object themselves and call writable()
    # only for a shared one (once per key and table), so a write to a
    # private object costs no second call or lookup.

    def get_or_create(self, key: int, size: int) -> VersionedObject:
        """The object stored under ``key``, writable, inserted blank
        (version 0) first if the table does not hold it."""
        obj = self._objects.get(key)
        if obj is None:
            obj = VersionedObject(key, size=size)
            self.insert(key, obj)
        elif obj.shared:
            obj = self.writable(key)
        return obj

    def try_lock(self, key: int, txn_id: int) -> bool:
        obj = self._objects.get(key)
        if obj is None:
            return False
        if obj.shared:
            obj = self.writable(key)
        return obj.try_lock(txn_id)

    def unlock_if_held(self, key: int, txn_id: int) -> bool:
        """Release ``key`` only if ``txn_id`` still owns its lock;
        returns whether it did."""
        obj = self._objects.get(key)
        if obj is None:
            return False
        if obj.shared:
            obj = self.writable(key)
        return obj.unlock_if_held(txn_id)

    def reads_current(self, versions: Iterable[Tuple[int, int]], txn_id: int,
                      skip=()) -> bool:
        """Read validation: every ``(key, version)`` pair outside
        ``skip`` is still at that version and not locked by another
        transaction."""
        for k, ver in versions:
            if k in skip:
                continue
            obj = self._objects.get(k)
            if (obj is None or obj.version != ver
                    or obj.locked_by_other(txn_id)):
                return False
        return True
