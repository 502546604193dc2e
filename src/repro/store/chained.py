"""DrTM+H's chained bucket table (§2.2.2, Table 2 comparison).

A closed array of fixed-size ``B``-element main buckets with linked
overflow buckets allocated on demand.  A remote lookup reads whole buckets
along the chain, one roundtrip each — cheap insertion at the cost of read
amplification and extra roundtrips at high occupancy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from .object import ObjectTable, VersionedObject, mix64, share

__all__ = ["ChainedTable", "ChainedLookup"]


@dataclass
class ChainedLookup:
    found: bool
    objects_read: int  # B per bucket traversed
    roundtrips: int  # buckets traversed


class _Bucket:
    __slots__ = ("keys", "next")

    def __init__(self, keys: List[Optional[int]]):
        self.keys = keys
        self.next: Optional["_Bucket"] = None


class ChainedTable(ObjectTable):
    """Fixed-bucket chained hash table."""

    def __init__(self, n_buckets: int, bucket_size: int = 8, hash_salt: int = 0):
        if n_buckets < 1 or bucket_size < 1:
            raise ValueError("need at least one bucket of one slot")
        self.n_buckets = n_buckets
        self.b = bucket_size
        self.hash_salt = hash_salt
        self._buckets = [_Bucket([None] * bucket_size)
                         for _ in range(n_buckets)]
        self._objects: Dict[int, VersionedObject] = {}
        self.size = 0
        self.linked_buckets = 0
        # True while clone_from shares the bucket chains with another
        # table; a structural write copies them first
        self._layout_shared = False

    def bucket_index(self, key: int) -> int:
        return mix64(key ^ self.hash_salt) % self.n_buckets

    @property
    def occupancy(self) -> float:
        """Occupancy relative to main-bucket capacity (the paper's metric)."""
        return self.size / (self.n_buckets * self.b)

    def __contains__(self, key: int) -> bool:
        bucket = self._buckets[self.bucket_index(key)]
        while bucket is not None:
            if key in bucket.keys:
                return True
            bucket = bucket.next
        return False

    def insert(self, key: int, obj: Optional[VersionedObject] = None) -> int:
        """Insert ``key``; returns the 1-based depth of the bucket used."""
        # _objects holds exactly the keys in the chains, so the duplicate
        # check needs no chain walk (and no second hash of the key)
        if key in self._objects:
            raise KeyError("duplicate key %d" % key)
        if self._layout_shared:
            self._own_layout()
        self._objects[key] = obj if obj is not None else VersionedObject(key)
        bucket = self._buckets[self.bucket_index(key)]
        depth = 1
        while True:
            keys = bucket.keys
            if None in keys:
                keys[keys.index(None)] = key
                self.size += 1
                return depth
            if bucket.next is None:
                bucket.next = _Bucket([None] * self.b)
                self.linked_buckets += 1
            bucket = bucket.next
            depth += 1

    def insert_many(self, objs: Iterable[VersionedObject]) -> None:
        """Insert ``objs`` in order (cluster loading)."""
        insert = self.insert
        for obj in objs:
            insert(obj.key, obj)

    def is_blank(self) -> bool:
        """True while the table is as constructed: no key and no linked
        bucket (deletes empty linked buckets but never unlink them)."""
        return self.size == 0 and self.linked_buckets == 0

    def clone_from(self, other: "ChainedTable") -> bool:
        """Become a copy of ``other`` if this table is blank and was built
        with ``other``'s parameters — the state it would reach by
        receiving ``other``'s insert sequence — and return True; otherwise
        change nothing and return False.  Both tables then hold
        ``other``'s objects, marked ``shared``: each table takes its own
        copy of a key when it first writes it
        (:meth:`~repro.store.object.ObjectTable.writable`), so replicas
        are still updated independently.  They share ``other``'s bucket
        chains the same way: both are marked, and the first structural
        write on either one (:meth:`insert`, :meth:`delete`) copies them
        first (:meth:`_own_layout`)."""
        if not (
            type(other) is type(self) and self.is_blank()
            and (self.n_buckets, self.b, self.hash_salt)
            == (other.n_buckets, other.b, other.hash_salt)
        ):
            return False
        self._buckets = other._buckets
        self._layout_shared = other._layout_shared = True
        share(other._objects.values())
        self._objects = dict(other._objects)
        self.size = other.size
        self.linked_buckets = other.linked_buckets
        return True

    def _own_layout(self) -> None:
        """Swap bucket chains shared by :meth:`clone_from` for this
        table's own copy.  The mark is never cleared on the other
        holders: the last one still holding the original copies it once
        more."""
        buckets = []
        for theirs in self._buckets:
            mine = _Bucket(list(theirs.keys))
            buckets.append(mine)
            while theirs.next is not None:
                theirs = theirs.next
                mine.next = _Bucket(list(theirs.keys))
                mine = mine.next
        self._buckets = buckets
        self._layout_shared = False

    def lookup(self, key: int) -> ChainedLookup:
        bucket = self._buckets[self.bucket_index(key)]
        objects = 0
        hops = 0
        while bucket is not None:
            hops += 1
            objects += self.b
            if key in bucket.keys:
                return ChainedLookup(True, objects, hops)
            bucket = bucket.next
        return ChainedLookup(False, objects, hops)

    def delete(self, key: int) -> None:
        if self._layout_shared:
            self._own_layout()
        bucket = self._buckets[self.bucket_index(key)]
        while bucket is not None:
            for i, k in enumerate(bucket.keys):
                if k == key:
                    bucket.keys[i] = None
                    self.size -= 1
                    self._objects.pop(key, None)
                    return
            bucket = bucket.next
        raise KeyError("no such key %d" % key)
