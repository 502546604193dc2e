"""Pluggable event-queue implementations for the simulation engine.

The scheduler data structure is the engine-side bottleneck once dispatch
is inlined (see ``docs/PERFORMANCE.md``): every scheduled event pays one
push and one pop, so at millions of events per run the queue's per-op
constant — and its behaviour under large standing populations of far
timers — dominates engine wall time.

Two implementations share one small protocol (:class:`EventQueue`):

* :class:`CalendarEventQueue` — the queue every ``Simulator()`` runs
  on: a calendar/bucket queue tuned for the clustered event horizons
  this simulator actually produces (NIC core ticks, link serialization,
  DMA completions all land within narrow bands of ``now``), where a
  heap pays O(log n) sifts against the standing population of far
  timers.  Push is O(1): drop the entry into the bucket for
  its time band.  Pop sorts one bucket at activation (C timsort over a
  small list) and then pops in O(1).  Bucket widths are powers of two —
  multiplying a non-negative float by a power of two only shifts the
  exponent, so ``int(when * inv_width)`` is exact and monotone in
  ``when`` and bucket order can never disagree with timestamp order —
  and the width is re-derived from the live event distribution when
  load-factor triggers fire (buckets too dense, or activations running
  dry).

* :class:`HeapEventQueue` — the classic binary heap (``heapq``), kept
  as the reference the tests compare the calendar against: the four
  protocol methods and nothing else, so it also exercises the generic
  drain loops.  Nothing in the package constructs one; a test passes
  ``Simulator(queue=HeapEventQueue())``.

An entry is a continuation: the mutable list ``[when, seq, fn, arg]``
(the calendar stores ``[-when, -seq, fn, arg]``), and popping it runs
``fn(arg)``.  ``push`` returns the entry it stored, so the engine can
turn a pending entry into a same-instant batch in place
(``Simulator._riding_push``); a pop *retires* the entry — clears it —
before running it, so an empty entry is one that left the queue.

Determinism contract (both implementations, pinned by
``tests/test_golden_digest.py`` and ``tests/test_event_queue.py``): pop
order is strict ``(when, seq)`` order — equal-timestamp entries run in
FIFO order, including across bucket boundaries.  Nothing
abandons a queued entry, so every popped entry is live and the queues
keep no stale-entry policy in step.

``Simulator(queue=<EventQueue instance>)`` is the one way to run on
anything else: swappability lives behind the protocol, not in a switch.
"""

from __future__ import annotations

from bisect import insort
from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

__all__ = [
    "EventQueue",
    "HeapEventQueue",
    "CalendarEventQueue",
    "selected_queue_kind",
]

# Entries are [when, seq, fn, arg] for the heap and [-when, -seq, fn,
# arg] for calendar buckets (negated keys make an ascending-sorted list
# pop its *minimum* timestamp from the tail in O(1)).  ``seq`` is
# unique, so comparisons never reach ``fn``.
Entry = List[Any]


def selected_queue_kind() -> str:
    """The queue a ``Simulator()`` runs on (for the ``info`` block of
    result files)."""
    return CalendarEventQueue.kind


class EventQueue:
    """Protocol + generic drain loops for scheduler implementations.

    Subclasses must implement ``push``, ``pop_min``, ``peek_time`` and
    ``__len__``; the calendar also overrides :meth:`drain_all` /
    :meth:`drain_until` with inlined loops (the generic versions here
    fire one :meth:`Simulator.step` per entry, are correct for any
    conforming implementation, and are what the heap runs).

    The queue owns the scheduling sequence number: ``push(when, fn,
    arg)`` assigns the next ``seq`` internally and returns the stored
    entry, so every scheduling path in the engine funnels through this
    one entry point.
    """

    kind = "abstract"

    seq = 0  # total entries ever pushed (the events/second numerator)

    def push(self, when: float, fn: Callable[[Any], None],
             arg: Any) -> Entry:
        raise NotImplementedError

    def pop_min(self) -> Optional[Tuple[float, int, Any, Any]]:
        """Remove the least ``(when, seq)`` entry, retire (clear) it and
        return its ``(when, seq, fn, arg)``, or ``None`` when empty."""
        raise NotImplementedError

    def peek_time(self) -> Optional[float]:
        """Timestamp of the least entry, or ``None`` when empty.  May
        reorganize internal structure but must not change the pop
        sequence."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    # -- drain loops (generic; the calendar overrides with inlined ones) --

    def drain_all(self, sim) -> None:
        """Pop and run every entry (a host runs its same-deadline
        riders, ``Simulator._riding_push``), one :meth:`Simulator.step`
        each."""
        step = sim.step
        while step():
            pass

    def drain_until(self, sim, until: float) -> None:
        """Like :meth:`drain_all` but leave any entry past ``until``
        queued; the clock never overruns ``until``."""
        peek = self.peek_time
        step = sim.step
        while True:
            t = peek()
            if t is None or t > until:
                return
            step()


class HeapEventQueue(EventQueue):
    """Binary-heap scheduler (``heapq``): the reference implementation
    the cross-implementation tests compare :class:`CalendarEventQueue`
    against.  Only the protocol methods, so it drains through the
    generic loops."""

    kind = "heap"

    __slots__ = ("seq", "_heap")

    def __init__(self):
        self.seq = 0
        self._heap: List[Entry] = []

    def push(self, when: float, fn: Callable[[Any], None],
             arg: Any) -> Entry:
        self.seq = seq = self.seq + 1
        entry = [when, seq, fn, arg]
        heappush(self._heap, entry)
        return entry

    def pop_min(self) -> Optional[Tuple[float, int, Any, Any]]:
        if self._heap:
            entry = heappop(self._heap)
            popped = tuple(entry)
            entry.clear()
            return popped
        return None

    def peek_time(self) -> Optional[float]:
        if self._heap:
            return self._heap[0][0]
        return None

    def __len__(self) -> int:
        return len(self._heap)


# Calendar tuning knobs (see docs/PERFORMANCE.md, "Scheduler
# architecture"): a bucket that sorts denser than _DENSE_BUCKET entries
# at activation triggers a rebalance, as does a run of _SPARSE_ACTS
# activations that consumed fewer than _SPARSE_PUSHES_PER_ACT pushes
# each (the queue is paying dict/bucket overhead per event instead of
# amortizing it across a band).  Rebalance re-derives the width from the
# live span at a target load of _TARGET_LOAD entries per bucket — and
# never below double the current width when the sparse trigger fired,
# so a sequential churn with a tiny standing queue (span ~0) still
# widens exponentially until activations are rare.  Widths are always
# powers of two, so bucket ids stay exact and monotone.
_DENSE_BUCKET = 96
_SPARSE_ACTS = 32
_SPARSE_PUSHES_PER_ACT = 16
_TARGET_LOAD = 4.0
_MIN_WIDTH = 2.0 ** -20
_MAX_WIDTH = 2.0 ** 24
_REBALANCE_MIN = 128  # span-derived resize needs a real population


class CalendarEventQueue(EventQueue):
    """Calendar/bucket scheduler for clustered event horizons.

    Structure:

    * ``_buckets``: dict mapping absolute bucket id ``int(when * inv)``
      to an unsorted list of ``[-when, -seq, fn, arg]`` entries —
      push is append, O(1);
    * ``_bids``: a small heap of bucket ids with (possibly stale)
      buckets — one heap op per *bucket*, not per event;
    * ``_cur``: the activated bucket, sorted ascending by negated key so
      ``list.pop()`` yields the minimum ``(when, seq)`` in O(1).  Pushes
      that land at or before the activated band go through ``insort``
      (C bisect) so ordering holds even when a callback schedules into
      the band being drained.

    Width is a power of two: ``when * inv_width`` only shifts the float
    exponent, so bucket ids are exact and monotone in ``when`` — the
    global pop order is strict ``(when, seq)``, byte-identical to the
    heap's.
    """

    kind = "calendar"

    __slots__ = ("seq", "_buckets", "_bids", "_cur", "_cur_id", "_width",
                 "_inv", "_removed", "_acts", "_seq_mark")

    def __init__(self, width: float = 1.0):
        self.seq = 0
        self._width = width
        self._inv = 1.0 / width
        self._buckets = {}          # bid -> unsorted [[-when,-seq,fn,arg]]
        self._bids: List[int] = []  # heap of bucket ids
        self._cur: List[Entry] = []  # activated bucket, sorted, pop()=min
        self._cur_id = -1           # bids <= _cur_id route into _cur
        # Population is derived, not counted on push: len() == seq -
        # _removed, so the push fast path touches one counter, not two.
        self._removed = 0           # entries popped
        self._acts = 0              # activations since last trigger check
        self._seq_mark = 0          # seq watermark for the sparse trigger

    # -- protocol ---------------------------------------------------------

    def push(self, when: float, fn: Callable[[Any], None],
             arg: Any) -> Entry:
        self.seq = seq = self.seq + 1
        entry = [-when, -seq, fn, arg]
        bid = int(when * self._inv)
        if bid <= self._cur_id:
            insort(self._cur, entry)
        else:
            buckets = self._buckets
            b = buckets.get(bid)
            if b is None:
                buckets[bid] = [entry]
                heappush(self._bids, bid)
            else:
                b.append(entry)
        return entry

    def pop_min(self) -> Optional[Tuple[float, int, Any, Any]]:
        cur = self._cur
        while not cur:
            if not self._advance():
                return None
            cur = self._cur
        entry = cur.pop()
        nw, ns, fn, arg = entry
        entry.clear()
        self._removed += 1
        return (-nw, -ns, fn, arg)

    def peek_time(self) -> Optional[float]:
        cur = self._cur
        while not cur:
            if not self._advance():
                return None
            cur = self._cur
        return -cur[-1][0]

    def __len__(self) -> int:
        return self.seq - self._removed

    # -- introspection (docs/tests/benches) -------------------------------

    @property
    def width(self) -> float:
        """Current bucket width in simulated microseconds."""
        return self._width

    # -- internals --------------------------------------------------------

    def _advance(self) -> bool:
        """Activate the next non-empty bucket into ``_cur``; returns
        False when the queue is drained.  Load-factor triggers fire here
        (and only here), so push/pop stay trigger-free."""
        buckets = self._buckets
        bids = self._bids
        # First activation after construction or a rebalance: a
        # pre-loaded population at nearly one bucket per event would pay
        # per-bucket overhead on every pop — fix the width up front.
        n = self.seq - self._removed
        if (self._cur_id == -1 and n >= _REBALANCE_MIN
                and 2 * len(buckets) >= n and self._rebalance()):
            buckets = self._buckets
            bids = self._bids
        while bids:
            bid = heappop(bids)
            b = buckets.pop(bid)
            self._acts += 1
            probed = False
            if self._acts >= _SPARSE_ACTS:
                # Too few pushes per activation means the queue is
                # paying bucket overhead per event: widen (at least 2x).
                pushes = self.seq - self._seq_mark
                self._acts = 0
                self._seq_mark = self.seq
                if pushes < _SPARSE_PUSHES_PER_ACT * _SPARSE_ACTS:
                    probed = True
                    if self._rebalance(b, floor=2.0 * self._width):
                        buckets = self._buckets
                        bids = self._bids
                        continue
            if (not probed and len(b) > _DENSE_BUCKET
                    and self._rebalance(b)):
                buckets = self._buckets
                bids = self._bids
                continue
            b.sort()
            self._cur = b
            self._cur_id = bid
            return True
        return False

    def _rebalance(self, extra: Optional[List[Entry]] = None,
                   floor: Optional[float] = None) -> bool:
        """Re-derive the bucket width from the live entry distribution
        (span at a target load of ``_TARGET_LOAD`` entries per bucket,
        rounded to a power of two, and at least ``floor`` when the
        sparse trigger is widening) and re-bucket everything, including
        the in-flight ``extra`` bucket a trigger may hand over.  Returns
        False — mutating nothing — when the width would not change, so
        callers fall back to the current geometry (and keep ownership of
        ``extra``)."""
        n = self.seq - self._removed
        if n < 1:
            return False
        # Cheap span probe (bucket-id granularity for the dict side, so
        # a declined rebalance never gathers all entries; exact for the
        # small in-flight/current lists, whose entries carry negated
        # keys: index -1 holds the minimum `when`).
        buckets = self._buckets
        lo = hi = None
        if buckets:
            w = self._width
            lo = min(buckets) * w
            hi = (max(buckets) + 1.0) * w
        for part in (extra, self._cur):
            if part:
                part_lo = -part[-1][0] if part is self._cur else -max(part)[0]
                part_hi = -part[0][0] if part is self._cur else -min(part)[0]
                lo = part_lo if lo is None else min(lo, part_lo)
                hi = part_hi if hi is None else max(hi, part_hi)
        target = 0.0
        if lo is not None:
            span = hi - lo
            if span > 0.0:
                target = span / max(8.0, n / _TARGET_LOAD)
        if floor is not None and floor > target:
            target = floor
        if target <= 0.0:
            return False
        width = _MIN_WIDTH
        while width < target and width < _MAX_WIDTH:
            width *= 2.0
        if width == self._width:
            return False
        entries: List[Entry] = list(self._cur)
        if extra:
            entries.extend(extra)
        for b in buckets.values():
            entries.extend(b)
        self._width = width
        self._inv = inv = 1.0 / width
        buckets = self._buckets = {}
        for e in entries:
            bid = int(-e[0] * inv)
            b = buckets.get(bid)
            if b is None:
                buckets[bid] = [e]
            else:
                b.append(e)
        self._bids = list(buckets)
        heapify(self._bids)
        self._cur = []
        self._cur_id = -1
        self._acts = 0
        self._seq_mark = self.seq
        return True

    # -- inlined drain loops ----------------------------------------------

    def drain_all(self, sim) -> None:
        while True:
            cur = self._cur
            while cur:
                entry = cur.pop()
                nw, _ns, fn, arg = entry
                entry.clear()
                self._removed += 1
                sim._now = -nw
                fn(arg)
            if not self._advance():
                return

    def drain_until(self, sim, until: float) -> None:
        while True:
            cur = self._cur
            while cur:
                entry = cur.pop()
                nw, _ns, fn, arg = entry
                if -nw > until:
                    cur.append(entry)  # restore the head
                    return
                entry.clear()
                self._removed += 1
                sim._now = -nw
                fn(arg)
            if not self._advance():
                return
