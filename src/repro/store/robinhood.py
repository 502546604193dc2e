"""Xenic's host-side Robinhood hash table (§4.1.2).

A closed (open-addressing) linear-probing table that balances probe
distances by displacement stealing, with the Xenic modifications:

* a global displacement limit ``Dm``; an insertion whose carried element
  reaches ``Dm`` lands in the overflow bucket of its home segment;
* fixed-size segments, each with an optional linked overflow bucket;
* deletion by overflow-swap when possible, else bounded backward shift
  (no tombstones);
* DMA-consistent swapping: insertions compute a move chain and apply it
  from the free end backwards, so a concurrent probe-scan reader never
  misses an existing key (the copy-list construction of §4.1.2 — the
  property test in ``tests/test_store_robinhood.py`` checks exactly this).

The table tracks structural cost metrics (probe lengths, displacement per
segment) that the SmartNIC index uses to size its DMA reads.

The layout is built on first use.  Loading records the objects; the
first lookup, insert, delete or hint read places them all, in load
order, as inserting them one by one would have.  A run whose NIC caches
serve every read never builds one.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Tuple

from ..sim.stats import OnlineStats
from .object import ObjectTable, VersionedObject, mix64, share

__all__ = ["RobinhoodTable", "InsertResult", "LookupResult", "DeleteResult"]

UNLIMITED = 1 << 30
SEGMENT_SIZE = 8  # slots per segment (default)


# Result records are hand-written ``__slots__`` classes: one is allocated
# per table operation, which puts them on both the bulk-load path and the
# NIC index's per-miss lookup path.


class InsertResult:
    __slots__ = ("ok", "swaps", "used_overflow", "moves")

    def __init__(self, ok: bool, swaps: int, used_overflow: bool,
                 moves: List[Tuple[int, int]]):
        self.ok = ok
        self.swaps = swaps  # elements displaced along the way
        self.used_overflow = used_overflow
        # (slot, key) writes in application order
        self.moves = moves


class LookupResult:
    __slots__ = ("found", "probe_len", "in_overflow", "slot", "displacement")

    def __init__(self, found: bool, probe_len: int, in_overflow: bool,
                 slot: Optional[int], displacement: Optional[int]):
        self.found = found
        self.probe_len = probe_len  # slots examined in the main table
        self.in_overflow = in_overflow
        self.slot = slot  # main-table slot if found there
        self.displacement = displacement  # found key's displacement from home


class DeleteResult:
    __slots__ = ("ok", "overflow_swap", "shift_len")

    def __init__(self, ok: bool, overflow_swap: bool, shift_len: int):
        self.ok = ok
        self.overflow_swap = overflow_swap
        # backward-shift distance (0 when overflow-swap used)
        self.shift_len = shift_len


class RobinhoodTable(ObjectTable):
    """Closed Robinhood hash table with displacement limit and segments."""

    def __init__(
        self,
        capacity: int,
        dm: int = 8,
        segment_size: int = SEGMENT_SIZE,
        hash_salt: int = 0,
    ):
        if capacity < segment_size:
            raise ValueError("capacity must be >= segment_size")
        if capacity % segment_size != 0:
            raise ValueError("capacity must be a multiple of segment_size")
        if dm < 1:
            raise ValueError("Dm must be >= 1 (use RobinhoodTable.unlimited)")
        self.capacity = capacity
        self.dm = dm
        self.segment_size = segment_size
        self.hash_salt = hash_salt
        self.n_segments = capacity // segment_size
        self._objects: Dict[int, VersionedObject] = {}
        # The layout: the slots, each slot's displacement from its key's
        # home (0 for a free slot: the byte a slot carries in §4.1.2, so
        # moving or passing an occupant never rehashes it), the overflow
        # buckets per segment (key lists, the linked bucket model) and
        # the per-segment max displacement of keys whose *home* is in the
        # segment (None marks dirty, recomputed lazily).  All four stay
        # None until the first call that reads or changes the layout
        # (_build_layout): a load only records objects.
        self._slots: Optional[List[Optional[int]]] = None
        self._disps: Optional[array] = None
        self._overflow: Optional[Dict[int, List[int]]] = None
        self._seg_max_disp: Optional[List[Optional[int]]] = None
        self.size = 0
        # Aggregate probe-length distribution across every lookup; read by
        # the observability layer (repro.obs) as a gauge/histogram source.
        self.probe_stats = OnlineStats()

    @classmethod
    def unlimited(cls, capacity: int, segment_size: int = SEGMENT_SIZE) -> "RobinhoodTable":
        """A table with no displacement limit (the 'no limit' row of
        Table 2); overflow buckets are never used."""
        table = cls(capacity, dm=1, segment_size=segment_size)
        table.dm = UNLIMITED
        return table

    # -- hashing ------------------------------------------------------------

    def home(self, key: int) -> int:
        return mix64(key ^ self.hash_salt) % self.capacity

    def segment_of_slot(self, slot: int) -> int:
        return slot // self.segment_size

    def segment_of_key(self, key: int) -> int:
        return self.segment_of_slot(self.home(key))

    # -- occupancy ------------------------------------------------------------

    @property
    def occupancy(self) -> float:
        """Main-table occupancy (overflow keys excluded)."""
        return (self.size - self.overflow_count) / self.capacity

    @property
    def overflow_count(self) -> int:
        if self._slots is None:
            self._build_layout()
        return sum(len(v) for v in self._overflow.values())

    def __len__(self) -> int:
        return self.size

    def __contains__(self, key: int) -> bool:
        return key in self._objects

    # -- insertion ------------------------------------------------------------

    def insert(self, key: int, obj: Optional[VersionedObject] = None) -> InsertResult:
        """Insert ``key``; returns the structural cost of the insertion.

        Raises ``KeyError`` on duplicate insertion and ``RuntimeError``
        when the table is full.
        """
        if key in self._objects:
            raise KeyError("duplicate key %d" % key)
        if obj is None:
            obj = VersionedObject(key)
        if self._slots is None:
            self._build_layout()
        chain, overflowed = self._plan_insert(key, self.home(key))
        cap = self.capacity
        seg_size = self.segment_size
        seg_max_disp = self._seg_max_disp
        if overflowed is not None:
            over_key, over_home = overflowed
            self._overflow.setdefault(over_home // seg_size, []).append(over_key)
            seg_max_disp[over_home // seg_size] = None
        # Apply moves last-first: the element headed to the free slot is
        # written first (duplicating it momentarily), so no key is ever
        # absent from the table during the swap sequence (DMA-consistent
        # order).
        chain.reverse()
        slots = self._slots
        disps = self._disps
        for slot, k, d in chain:
            slots[slot] = k
            disps[slot] = d
            seg_max_disp[(slot - d) % cap // seg_size] = None
        self._objects[key] = obj
        self.size += 1
        swaps = len(chain) if overflowed is not None else len(chain) - 1
        return InsertResult(True, swaps, overflowed is not None,
                            [(slot, k) for slot, k, _ in chain])

    def _plan_insert(self, key: int, home: int):
        """Walk ``key``'s displacement chain without mutating anything.

        Returns ``(chain, overflowed)``: ``chain`` lists the
        ``(slot, key, key's displacement there)`` writes in probe order, and
        ``overflowed`` is the ``(key, home)`` of the carried element that
        reached ``Dm`` (it belongs in its home segment's overflow bucket)
        or None when the chain ended at a free slot.  Probe positions
        never repeat before the walk gives up, so the unmodified slot
        array is the only state it has to read.
        """
        cap = self.capacity
        dm = self.dm
        slots = self._slots
        disps = self._disps
        chain: List[Tuple[int, int, int]] = []
        cur_key, cur_disp = key, 0
        pos = home
        for _ in range(cap + 1):
            if cur_disp >= dm:
                return chain, (cur_key, (pos - cur_disp) % cap)
            occupant = slots[pos]
            if occupant is None:
                chain.append((pos, cur_key, cur_disp))
                return chain, None
            occ_disp = disps[pos]
            if occ_disp < cur_disp:
                # steal the slot; carry the occupant forward
                chain.append((pos, cur_key, cur_disp))
                cur_key, cur_disp = occupant, occ_disp
            pos += 1
            if pos == cap:
                pos = 0
            cur_disp += 1
        raise RuntimeError("robinhood table is full")

    def insert_many(self, objs: Iterable[VersionedObject]) -> None:
        """Insert ``objs`` in order, as :meth:`insert` would one by one,
        for callers that read no :class:`InsertResult` (cluster loading).

        Before the layout is built this only records the objects and
        rejects a duplicate key; the first call that reads or changes the
        layout places them (:meth:`_build_layout`).  A load that fills
        every slot builds the layout there and inserts the rest of the
        batch, since only then can a placement find the table full.  On
        an error the objects before the offending one stay inserted, as
        they would in a loop.
        """
        objs = iter(objs)
        if self._slots is None:
            objects = self._objects
            cap = self.capacity
            try:
                for obj in objs:
                    key = obj.key
                    if key in objects:
                        raise KeyError("duplicate key %d" % key)
                    objects[key] = obj
                    if len(objects) == cap:
                        break
                else:
                    return
            finally:
                self.size = len(objects)
            self._build_layout()
        for obj in objs:
            self.insert(obj.key, obj)

    def _build_layout(self) -> None:
        """Allocate the layout and place every recorded key in it, in
        insertion order: the layout inserting them one by one builds.

        Nothing can probe the table during the build, so moves are
        written in probe order, the common free-home-slot case skips the
        chain walk, and every segment's displacement cache is left dirty
        (the build touches nearly all of them).  At most ``capacity``
        keys are recorded, so a free slot is always left to reach.
        """
        cap = self.capacity
        self._slots = slots = [None] * cap
        self._disps = disps = array("I", [0]) * cap
        self._overflow = overflow = {}
        self._seg_max_disp = [None] * self.n_segments
        salt = self.hash_salt
        seg_size = self.segment_size
        plan = self._plan_insert
        for key in self._objects:
            home = mix64(key ^ salt) % cap
            if slots[home] is None:
                slots[home] = key  # displacement 0, as a free slot's
            else:
                chain, overflowed = plan(key, home)
                if overflowed is not None:
                    over_key, over_home = overflowed
                    overflow.setdefault(over_home // seg_size,
                                        []).append(over_key)
                for slot, k, d in chain:
                    slots[slot] = k
                    disps[slot] = d

    def is_blank(self) -> bool:
        """True while the table holds no key (deletes leave no
        tombstones, so an emptied layout is as constructed)."""
        return self.size == 0

    def clone_from(self, other: "RobinhoodTable") -> bool:
        """Become a copy of ``other`` if neither table has built its
        layout, this one is blank and it was built with ``other``'s
        parameters — the state it would reach by receiving ``other``'s
        insert sequence — and return True; otherwise change nothing and
        return False.

        Only the key -> object map is copied: each table builds its own
        layout on first use, so no layout is shared.  Both tables hold
        ``other``'s objects, marked ``shared``: each takes its own copy
        of a key when it first writes it
        (:meth:`~repro.store.object.ObjectTable.writable`), so replicas
        are still updated independently.
        """
        if not (
            type(other) is type(self) and self.is_blank()
            and self._slots is None and other._slots is None
            and (self.capacity, self.dm, self.segment_size, self.hash_salt)
            == (other.capacity, other.dm, other.segment_size, other.hash_salt)
        ):
            return False
        share(other._objects.values())
        self._objects = dict(other._objects)
        self.size = other.size
        return True

    # -- lookup ------------------------------------------------------------

    def lookup(self, key: int) -> LookupResult:
        """Probe for ``key`` from its home slot; falls back to the home
        segment's overflow bucket after ``Dm`` slots."""
        result = self._lookup(key)
        self.probe_stats.add(result.probe_len)
        return result

    def _lookup(self, key: int) -> LookupResult:
        cap = self.capacity
        home = mix64(key ^ self.hash_salt) % cap
        dm = self.dm
        limit = dm if dm < cap else cap
        slots = self._slots
        if slots is None:
            self._build_layout()
            slots = self._slots
        if home + limit < cap:
            # no wraparound within the probe window: skip the per-probe
            # modulo entirely
            pos = home
            for i in range(limit + 1):
                occupant = slots[pos]
                if occupant == key:
                    return LookupResult(True, i + 1, False, pos, i)
                if occupant is None:
                    # An empty slot ends probing (no tombstones by design).
                    return self._overflow_lookup(key, home, i + 1)
                pos += 1
        else:
            for i in range(limit + 1):
                pos = (home + i) % cap
                occupant = slots[pos]
                if occupant == key:
                    return LookupResult(True, i + 1, False, pos, i)
                if occupant is None:
                    return self._overflow_lookup(key, home, i + 1)
        return self._overflow_lookup(key, home, limit + 1)

    def _overflow_lookup(self, key: int, home: int,
                         probed: int) -> LookupResult:
        bucket = self._overflow.get(home // self.segment_size)
        if bucket and key in bucket:
            return LookupResult(True, probed, True, None, None)
        return LookupResult(False, probed, False, None, None)

    # -- deletion ------------------------------------------------------------

    def delete(self, key: int) -> DeleteResult:
        if key not in self._objects:
            raise KeyError("no such key %d" % key)
        if self._slots is None:
            self._build_layout()
        seg = self.segment_of_key(key)
        bucket = self._overflow.get(seg)
        if bucket and key in bucket:
            bucket.remove(key)
            if not bucket:
                del self._overflow[seg]
            del self._objects[key]
            self.size -= 1
            return DeleteResult(True, False, 0)
        res = self.lookup(key)
        assert res.found and res.slot is not None
        slot = res.slot
        # Prefer swapping in an overflow element that may legally occupy
        # this slot (its home precedes the slot within Dm).
        swapped = self._try_overflow_swap(slot)
        if swapped is not None:
            del self._objects[key]
            self.size -= 1
            return DeleteResult(True, True, 0)
        # Backward shift: pull successors with positive displacement back
        # (a free slot holds displacement 0, so it ends the shift too).
        slots, disps = self._slots, self._disps
        cap, seg_size = self.capacity, self.segment_size
        seg_max_disp = self._seg_max_disp
        seg_max_disp[(slot - disps[slot]) % cap // seg_size] = None
        shift = 0
        pos = slot
        while True:
            nxt = (pos + 1) % cap
            d = disps[nxt]
            if d == 0:
                slots[pos] = None
                disps[pos] = 0
                break
            slots[pos] = slots[nxt]
            disps[pos] = d - 1
            seg_max_disp[(nxt - d) % cap // seg_size] = None
            pos = nxt
            shift += 1
        del self._objects[key]
        self.size -= 1
        return DeleteResult(True, False, shift)

    def _try_overflow_swap(self, slot: int) -> Optional[int]:
        """Move an overflow element into ``slot`` if one can legally live
        there; returns the moved key or None.

        Only overflow buckets whose segments contain a home within
        ``(slot - Dm, slot]`` can hold a candidate, so the scan is local.
        """
        span = min(self.dm, self.capacity)
        lo_seg = self.segment_of_slot((slot - span) % self.capacity)
        candidate_segs = set()
        seg = lo_seg
        while True:
            candidate_segs.add(seg)
            if seg == self.segment_of_slot(slot):
                break
            seg = (seg + 1) % self.n_segments
        for seg in candidate_segs:
            bucket = self._overflow.get(seg)
            if not bucket:
                continue
            for k in bucket:
                home = self.home(k)
                disp = (slot - home) % self.capacity
                if disp < self.dm and self._path_full(home, disp):
                    bucket.remove(k)
                    if not bucket:
                        del self._overflow[seg]
                    self._slots[slot] = k
                    self._disps[slot] = disp
                    self._seg_max_disp[home // self.segment_size] = None
                    return k
        return None

    def _path_full(self, home: int, disp: int) -> bool:
        for i in range(disp):
            if self._slots[(home + i) % self.capacity] is None:
                return False
        return True

    # -- NIC index support ---------------------------------------------------

    def segment_max_displacement(self, seg: int) -> int:
        """d_i: the max displacement among keys whose home lies in segment
        ``seg`` (0 when the segment is empty).  Recomputed lazily."""
        if self._slots is None:
            self._build_layout()
        cached = self._seg_max_disp[seg]
        if cached is not None:
            return cached
        cap = self.capacity
        lo = seg * self.segment_size
        hi = lo + self.segment_size
        disps = self._disps
        best = 0
        # a free slot holds 0, which never raises the max
        for i in range(self.segment_size + min(self.dm, cap)):
            pos = (lo + i) % cap
            d = disps[pos]
            if d > best and lo <= (pos - d) % cap < hi:
                best = d
        self._seg_max_disp[seg] = best
        return best

    def segment_has_overflow(self, seg: int) -> bool:
        if self._slots is None:
            self._build_layout()
        return seg in self._overflow

    def overflow_bucket_len(self, seg: int) -> int:
        if self._slots is None:
            self._build_layout()
        return len(self._overflow.get(seg, ()))
