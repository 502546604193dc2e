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
    """Fixed-bucket chained hash table.

    The bucket chains are built on first use: loading records the
    objects, and the first lookup, insert or delete places them all, in
    load order, as inserting them one by one would have."""

    def __init__(self, n_buckets: int, bucket_size: int = 8, hash_salt: int = 0):
        if n_buckets < 1 or bucket_size < 1:
            raise ValueError("need at least one bucket of one slot")
        self.n_buckets = n_buckets
        self.b = bucket_size
        self.hash_salt = hash_salt
        # the main buckets, each heading its chain; None until the first
        # call that reads or changes them (_build_layout)
        self._buckets: Optional[List[_Bucket]] = None
        self._objects: Dict[int, VersionedObject] = {}
        self.size = 0
        self.linked_buckets = 0

    def bucket_index(self, key: int) -> int:
        return mix64(key ^ self.hash_salt) % self.n_buckets

    @property
    def occupancy(self) -> float:
        """Occupancy relative to main-bucket capacity (the paper's metric)."""
        return self.size / (self.n_buckets * self.b)

    def __contains__(self, key: int) -> bool:
        return key in self._objects

    def insert(self, key: int, obj: Optional[VersionedObject] = None) -> int:
        """Insert ``key``; returns the 1-based depth of the bucket used."""
        # _objects holds exactly the table's keys, so the duplicate
        # check needs no chain walk (and no second hash of the key)
        if key in self._objects:
            raise KeyError("duplicate key %d" % key)
        if self._buckets is None:
            self._build_layout()
        self._objects[key] = obj if obj is not None else VersionedObject(key)
        self.size += 1
        return self._place(key)

    def _place(self, key: int) -> int:
        """The placement loop: put ``key`` in the first free slot along
        its chain, linking a new bucket when every one is full; returns
        the 1-based depth of the bucket used."""
        bucket = self._buckets[self.bucket_index(key)]
        depth = 1
        while True:
            keys = bucket.keys
            if None in keys:
                keys[keys.index(None)] = key
                return depth
            if bucket.next is None:
                bucket.next = _Bucket([None] * self.b)
                self.linked_buckets += 1
            bucket = bucket.next
            depth += 1

    def insert_many(self, objs: Iterable[VersionedObject]) -> None:
        """Insert ``objs`` in order (cluster loading).  Before the chains
        are built this only records the objects and rejects a duplicate
        key; the first call that reads or changes them places them."""
        if self._buckets is not None:
            for obj in objs:
                self.insert(obj.key, obj)
            return
        objects = self._objects
        try:
            for obj in objs:
                key = obj.key
                if key in objects:
                    raise KeyError("duplicate key %d" % key)
                objects[key] = obj
        finally:
            self.size = len(objects)

    def _build_layout(self) -> None:
        """Allocate the main buckets and place every recorded key, in
        insertion order, through :meth:`_place`."""
        self._buckets = [_Bucket([None] * self.b)
                         for _ in range(self.n_buckets)]
        for key in self._objects:
            self._place(key)

    def is_blank(self) -> bool:
        """True while the table is as constructed: no key and no linked
        bucket (deletes empty linked buckets but never unlink them)."""
        return self.size == 0 and self.linked_buckets == 0

    def clone_from(self, other: "ChainedTable") -> bool:
        """Become a copy of ``other`` if neither table has built its
        chains, this one is blank and it was built with ``other``'s
        parameters — the state it would reach by receiving ``other``'s
        insert sequence — and return True; otherwise change nothing and
        return False.  Only the key -> object map is copied: each table
        builds its own chains on first use.  Both tables hold
        ``other``'s objects, marked ``shared``: each takes its own copy
        of a key when it first writes it
        (:meth:`~repro.store.object.ObjectTable.writable`), so replicas
        are still updated independently."""
        if not (
            type(other) is type(self) and self.is_blank()
            and self._buckets is None and other._buckets is None
            and (self.n_buckets, self.b, self.hash_salt)
            == (other.n_buckets, other.b, other.hash_salt)
        ):
            return False
        share(other._objects.values())
        self._objects = dict(other._objects)
        self.size = other.size
        return True

    def lookup(self, key: int) -> ChainedLookup:
        if self._buckets is None:
            self._build_layout()
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
        if key not in self._objects:
            raise KeyError("no such key %d" % key)
        if self._buckets is None:
            self._build_layout()
        bucket = self._buckets[self.bucket_index(key)]
        while True:
            keys = bucket.keys
            if key in keys:
                keys[keys.index(key)] = None
                self.size -= 1
                del self._objects[key]
                return
            bucket = bucket.next
