"""DrTM+H's chained bucket table (§2.2.2, Table 2 comparison).

A closed array of fixed-size ``B``-element main buckets with linked
overflow buckets allocated on demand.  A remote lookup reads whole buckets
along the chain, one roundtrip each — cheap insertion at the cost of read
amplification and extra roundtrips at high occupancy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional

from .object import ObjectTable, VersionedObject, mix64

__all__ = ["ChainedTable", "ChainedLookup"]


@dataclass
class ChainedLookup:
    found: bool
    objects_read: int  # B per bucket traversed
    roundtrips: int  # buckets traversed


class _Bucket:
    __slots__ = ("keys", "next")

    def __init__(self, size: int):
        self.keys: List[Optional[int]] = [None] * size
        self.next: Optional["_Bucket"] = None


class ChainedTable(ObjectTable):
    """Fixed-bucket chained hash table."""

    def __init__(self, n_buckets: int, bucket_size: int = 8, hash_salt: int = 0):
        if n_buckets < 1 or bucket_size < 1:
            raise ValueError("need at least one bucket of one slot")
        self.n_buckets = n_buckets
        self.b = bucket_size
        self.hash_salt = hash_salt
        self._buckets = [_Bucket(bucket_size) for _ in range(n_buckets)]
        self._objects: Dict[int, VersionedObject] = {}
        self.size = 0
        self.linked_buckets = 0

    def bucket_index(self, key: int) -> int:
        return mix64(key ^ self.hash_salt) % self.n_buckets

    @property
    def occupancy(self) -> float:
        """Occupancy relative to main-bucket capacity (the paper's metric)."""
        return self.size / (self.n_buckets * self.b)

    def __len__(self) -> int:
        return self.size

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
                bucket.next = _Bucket(self.b)
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
        change nothing and return False.  Objects are copied (replicas are
        updated independently); their values are shared, as they are
        between replicas loaded key by key."""
        if not (
            type(other) is type(self) and self.is_blank()
            and (self.n_buckets, self.b, self.hash_salt)
            == (other.n_buckets, other.b, other.hash_salt)
        ):
            return False
        for mine, theirs in zip(self._buckets, other._buckets):
            mine.keys = list(theirs.keys)
            while theirs.next is not None:
                theirs = theirs.next
                mine.next = _Bucket(self.b)
                mine = mine.next
                mine.keys = list(theirs.keys)
        self._objects = {k: o.copy() for k, o in other._objects.items()}
        self.size = other.size
        self.linked_buckets = other.linked_buckets
        return True

    def get_object(self, key: int) -> Optional[VersionedObject]:
        return self._objects.get(key)

    def objects(self) -> Iterator[VersionedObject]:
        return iter(self._objects.values())

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
