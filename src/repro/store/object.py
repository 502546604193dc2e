"""Versioned key-value objects and lock words.

Every object in the database carries the OCC metadata of §2.2.1: a version
counter incremented on each committed write and a lock word naming the
transaction currently holding the write lock (or ``None``).
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["VersionedObject", "mix64"]

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
        if self.lock_owner != txn_id:
            raise RuntimeError(
                "txn %d unlocking object %d held by %r"
                % (txn_id, self.key, self.lock_owner)
            )
        self.lock_owner = None

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

    def __repr__(self) -> str:  # pragma: no cover
        return "<Obj %d v%d%s>" % (
            self.key,
            self.version,
            " L" if self.locked else "",
        )
