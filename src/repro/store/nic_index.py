"""The SmartNIC caching index (§4.1.3).

NIC-resident metadata for the host-side Robinhood table:

* **transaction metadata** — lock word and version counter for objects
  touched by ongoing transactions.  Locks live *only* here (§4.2.1a); the
  version here is authoritative for the primary shard, with the host copy
  catching up when the Robinhood workers apply the log.
* **object cache** — hot values served from NIC DRAM, with LRU eviction
  and commit pinning: a freshly committed value is pinned until the host
  acknowledges applying the log entry, so a DMA lookup can never observe a
  stale host value (§4.2 step 6).  The cache is a plain ``dict`` of bare
  values in LRU order (a hit re-inserts its key at the end) beside a
  pin-count ``dict`` that holds only the pinned keys.
* **displacement hints** — per-segment ``d_i`` (max displacement of keys
  homed in the segment) plus a ``k``-slot slack; these bound the size of
  the single DMA read that serves a cache miss, and a second adjacent read
  (or overflow-page read) covers stale hints and overflow keys.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

from .object import Participant
from .robinhood import RobinhoodTable

__all__ = ["NicIndex", "TxnMeta", "DmaLookupCost"]

# Per-slot bytes transferred beyond the value itself: key, version/lock
# word, displacement byte, padding.
SLOT_HEADER_BYTES = 16
POINTER_SLOT_BYTES = 24

_ABSENT = object()  # a cache miss (None is a value the cache may hold)


class TxnMeta:
    """Lock/version metadata for one object, resident in NIC DRAM.

    Slotted (one instance per concurrently-touched key on the commit
    hot path)."""

    __slots__ = ("lock_owner", "version")

    def __init__(self, lock_owner: Optional[int] = None, version: int = 0):
        self.lock_owner = lock_owner
        self.version = version

    @property
    def locked(self) -> bool:
        return self.lock_owner is not None


class DmaLookupCost:
    """Cost descriptor for one cache-miss lookup against host memory
    (slotted: one per DMA miss)."""

    __slots__ = ("found", "objects_read", "roundtrips", "first_read_bytes",
                 "second_read_bytes", "extra_object_bytes")

    def __init__(
        self,
        found: bool,
        objects_read: int,
        roundtrips: int,  # DMA roundtrips (1 common, 2 on stale hint/overflow)
        first_read_bytes: int,
        second_read_bytes: int,
        extra_object_bytes: int,  # large-object pointer chase (extra DMA op)
    ):
        self.found = found
        self.objects_read = objects_read
        self.roundtrips = roundtrips
        self.first_read_bytes = first_read_bytes
        self.second_read_bytes = second_read_bytes
        self.extra_object_bytes = extra_object_bytes

    @property
    def total_bytes(self) -> int:
        return self.first_read_bytes + self.second_read_bytes + self.extra_object_bytes


class NicIndex(Participant):
    """Caching index over one host-side Robinhood table."""

    def __init__(
        self,
        host_table: RobinhoodTable,
        cache_capacity: int = 4096,
        k_slack: int = 1,
        value_size: int = 64,
    ):
        if cache_capacity < 1:
            raise ValueError("cache_capacity must be >= 1")
        self.host_table = host_table
        self.cache_capacity = cache_capacity
        self.k = k_slack
        self.value_size = value_size
        self._meta: Dict[int, TxnMeta] = {}
        # key -> cached value, least recently used first: a hit pops the
        # key and re-inserts it at the end, eviction scans from the start
        self._cache: Dict[int, Any] = {}
        # key -> pin count (> 0), for pinned keys only; always a subset
        # of the cached keys, since a pinned key is never evicted
        self._pins: Dict[int, int] = {}
        # exact location hints learned from past DMA reads: key ->
        # displacement observed in the host table.  Stale hints are safe:
        # the lookup falls back to a second adjacent read (§4.1.3).
        self._loc_hints: Dict[int, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.pins_blocked_eviction = 0

    # -- transaction metadata ----------------------------------------------

    def meta_for(self, key: int, create: bool = False) -> Optional[TxnMeta]:
        meta = self._meta.get(key)
        if meta is None and create:
            host_obj = self.host_table.get_object(key)
            meta = TxnMeta(version=host_obj.version if host_obj else 0)
            self._meta[key] = meta
        return meta

    def try_lock(self, key: int, txn_id: int) -> bool:
        meta = self.meta_for(key, create=True)
        if meta.lock_owner is None or meta.lock_owner == txn_id:
            meta.lock_owner = txn_id
            return True
        return False

    def is_locked(self, key: int, txn_id: Optional[int] = None) -> bool:
        """True when locked (by anyone other than ``txn_id``, if given)."""
        meta = self._meta.get(key)
        if meta is None or meta.lock_owner is None:
            return False
        return meta.lock_owner != txn_id

    def unlock(self, key: int, txn_id: int) -> None:
        if not self.unlock_if_held(key, txn_id):
            raise RuntimeError(
                "txn %d unlocking key %d it does not hold" % (txn_id, key)
            )

    def unlock_if_held(self, key: int, txn_id: int) -> bool:
        """Release ``key`` only if ``txn_id`` still owns its lock (an
        abort, a duplicate or a recovery may have released or reassigned
        it already); returns whether it did."""
        meta = self._meta.get(key)
        if meta is None or meta.lock_owner != txn_id:
            return False
        meta.lock_owner = None
        self._maybe_purge(key)
        return True

    def reads_current(self, versions: Iterable[Tuple[int, int]], txn_id: int,
                      skip=()) -> bool:
        """Read validation: every ``(key, version)`` pair outside
        ``skip`` is still at that version and not locked by another
        transaction."""
        for k, ver in versions:
            if k not in skip and (self.is_locked(k, txn_id)
                                  or self.read_version(k) != ver):
                return False
        return True

    def read_version(self, key: int) -> int:
        meta = self._meta.get(key)
        if meta is not None:
            return meta.version
        host_obj = self.host_table.get_object(key)
        return host_obj.version if host_obj else 0

    def apply_commit(self, key: int, value: Any) -> int:
        """Install a committed write: bump the authoritative version,
        refresh + pin the cache entry (evictable only after log ack).
        Returns the new version."""
        meta = self.meta_for(key, create=True)
        meta.version += 1
        self.install_cache(key, value, pin=True)
        return meta.version

    def log_acked(self, key: int) -> None:
        """Host applied the committed write; the cache entry may be
        evicted and idle metadata purged."""
        pins = self._pins
        count = pins.get(key)
        if count is not None:
            if count > 1:
                pins[key] = count - 1
            else:
                del pins[key]
        self._maybe_purge(key)

    def _maybe_purge(self, key: int) -> None:
        meta = self._meta.get(key)
        if meta is None or meta.locked or key in self._cache:
            return
        host_obj = self.host_table.get_object(key)
        # keep metadata while the host copy is behind (version mismatch)
        if host_obj is not None and host_obj.version == meta.version:
            del self._meta[key]

    # -- object cache --------------------------------------------------------

    def cache_lookup(self, key: int) -> Tuple[bool, Any]:
        cache = self._cache
        value = cache.pop(key, _ABSENT)
        if value is _ABSENT:
            self.misses += 1
            return False, None
        cache[key] = value  # now the most recently used
        self.hits += 1
        return True, value

    def cache_contains(self, key: int) -> bool:
        return key in self._cache

    def install_cache(self, key: int, value: Any, pin: bool = False) -> None:
        cache = self._cache
        if cache.pop(key, _ABSENT) is _ABSENT:
            self._evict_to_fit()
        cache[key] = value
        if pin:
            self._pins[key] = self._pins.get(key, 0) + 1

    def pin(self, key: int) -> None:
        if key not in self._cache:
            raise KeyError("pin of uncached key %d" % key)
        self._pins[key] = self._pins.get(key, 0) + 1

    def is_pinned(self, key: int) -> bool:
        return key in self._pins

    def _evict_to_fit(self) -> None:
        cache = self._cache
        pins = self._pins
        while len(cache) >= self.cache_capacity:
            victim = None
            for k in cache:
                if k not in pins:
                    victim = k
                    break
                self.pins_blocked_eviction += 1
            if victim is None:
                # everything pinned: allow temporary over-capacity rather
                # than violating the stale-read protection
                return
            del cache[victim]
            self.evictions += 1
            self._maybe_purge(victim)

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -- DMA lookup cost (cache miss path) -----------------------------------

    def miss_cost(self, key: int) -> DmaLookupCost:
        """Size the DMA read(s) needed to fetch ``key`` from host memory.

        If a past read left an exact location hint for this key, the read
        covers exactly ``[home, home + hint]``; otherwise the segment's
        d_i hint plus the k-slot slack bounds it (§4.1.3).  Either way a
        stale hint falls back to a second adjacent read.  The observed
        location is (re)recorded so steady-state lookups of indexed keys
        read the minimal region.
        """
        table = self.host_table
        seg = table.segment_of_key(key)
        seg_overflowed = table.segment_has_overflow(seg)
        dm = min(table.dm, table.capacity)
        slot_bytes = self.value_size + SLOT_HEADER_BYTES

        res = table.lookup(key)
        loc = self._loc_hints.get(key)
        if loc is not None:
            hint_span = min(loc + 1, dm + 1)
        else:
            d_i = table.segment_max_displacement(seg)
            hint_span = min(d_i + self.k + 1, dm + 1)
        # learn the key's location from this read for next time
        if res.found and not res.in_overflow and res.displacement is not None:
            self._loc_hints[key] = res.displacement
        else:
            self._loc_hints.pop(key, None)

        first_span = hint_span
        first_bytes = first_span * slot_bytes
        second_span = 0
        second_bytes = 0
        roundtrips = 1
        if res.found and not res.in_overflow and res.displacement is not None:
            if res.displacement >= first_span:
                # stale hint: second, adjacent read up to the limit
                second_span = (dm + 1) - first_span
                second_bytes = second_span * slot_bytes
                roundtrips = 2
        elif res.found and res.in_overflow:
            # overflow page read (d_i == Dm case reads it directly as the
            # second access)
            second_span = max(1, table.overflow_bucket_len(seg))
            second_bytes = second_span * slot_bytes
            roundtrips = 2
        elif not res.found:
            if seg_overflowed:
                second_span = max(1, table.overflow_bucket_len(seg))
                second_bytes = second_span * slot_bytes
                roundtrips = 2

        extra = 0
        obj = table.get_object(key)
        if obj is not None and obj.is_large:
            # table slot holds a pointer; chase it with one more DMA op
            first_bytes = first_span * POINTER_SLOT_BYTES
            second_bytes = second_span * POINTER_SLOT_BYTES
            extra = obj.size
        return DmaLookupCost(
            found=res.found,
            objects_read=first_span + second_span,
            roundtrips=roundtrips,
            first_read_bytes=first_bytes,
            second_read_bytes=second_bytes,
            extra_object_bytes=extra,
        )
