"""Versioned key-value objects and lock words.

Every object in the database carries the OCC metadata of §2.2.1: a version
counter incremented on each committed write and a lock word naming the
transaction currently holding the write lock (or ``None``).
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Tuple

__all__ = ["VersionedObject", "Participant", "ObjectTable", "mix64"]

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
    """A database object with OCC metadata."""

    __slots__ = ("key", "value", "size", "version", "lock_owner")

    def __init__(self, key: int, value: Any = None, size: int = 8):
        self.key = key
        self.value = value
        self.size = size
        self.version = 0
        self.lock_owner: Optional[int] = None

    @property
    def locked(self) -> bool:
        return self.lock_owner is not None

    def locked_by_other(self, txn_id: int) -> bool:
        """True when a transaction other than ``txn_id`` holds the lock."""
        return self.lock_owner is not None and self.lock_owner != txn_id

    @property
    def is_large(self) -> bool:
        return self.size > LARGE_OBJECT_THRESHOLD

    def try_lock(self, txn_id: int) -> bool:
        """Acquire the write lock; re-entrant for the same transaction."""
        if self.lock_owner is None or self.lock_owner == txn_id:
            self.lock_owner = txn_id
            return True
        return False

    def unlock(self, txn_id: int) -> None:
        if not self.unlock_if_held(txn_id):
            raise RuntimeError(
                "txn %d unlocking object %d held by %r"
                % (txn_id, self.key, self.lock_owner)
            )

    def unlock_if_held(self, txn_id: int) -> bool:
        """Release the lock only if ``txn_id`` still owns it; returns
        whether it did."""
        if self.lock_owner != txn_id:
            return False
        self.lock_owner = None
        return True

    def copy(self) -> "VersionedObject":
        """An independent object in the same state (the value is shared)."""
        dup = VersionedObject(self.key, self.value, self.size)
        dup.version = self.version
        dup.lock_owner = self.lock_owner
        return dup

    def commit_write(self, value: Any) -> None:
        """Install a new value and bump the version (lock must be held)."""
        self.value = value
        self.version += 1

    def install(self, value: Any, version: int) -> None:
        """Install a replicated write at the version its record carries."""
        self.value = value
        self.version = version

    def __repr__(self) -> str:  # pragma: no cover
        return "<Obj %d v%d%s>" % (
            self.key,
            self.version,
            " L" if self.locked else "",
        )


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
    for any table of :class:`VersionedObject` with ``get_object`` /
    ``insert``.  A key the table does not hold can be neither locked nor
    validated (the NIC index, fronting the transactional insert path,
    treats it as unlocked at version 0)."""

    def get_or_create(self, key: int, size: int) -> VersionedObject:
        """The object stored under ``key``, inserted blank (version 0)
        first if the table does not hold it."""
        obj = self.get_object(key)
        if obj is None:
            obj = VersionedObject(key, size=size)
            self.insert(key, obj)
        return obj

    def try_lock(self, key: int, txn_id: int) -> bool:
        obj = self.get_object(key)
        return obj is not None and obj.try_lock(txn_id)

    def unlock_if_held(self, key: int, txn_id: int) -> bool:
        """Release ``key`` only if ``txn_id`` still owns its lock;
        returns whether it did."""
        obj = self.get_object(key)
        return obj is not None and obj.unlock_if_held(txn_id)

    def reads_current(self, versions: Iterable[Tuple[int, int]], txn_id: int,
                      skip=()) -> bool:
        """Read validation: every ``(key, version)`` pair outside
        ``skip`` is still at that version and not locked by another
        transaction."""
        for k, ver in versions:
            if k in skip:
                continue
            obj = self.get_object(k)
            if (obj is None or obj.version != ver
                    or obj.locked_by_other(txn_id)):
                return False
        return True
