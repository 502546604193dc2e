"""Shared-resource primitives for the simulation engine.

These mirror the SimPy resource set with an explicit request/release
API that takes a continuation: a wait hands over ``then``, which runs
with ``None`` once the slot or count is granted (at once when it is
free), so no event is built.

* :class:`Resource` — ``capacity`` interchangeable slots, FIFO granting.
* :class:`Semaphore` — counting semaphore (non-slot-tracking Resource).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque

from .core import SimulationError, Simulator

__all__ = ["Resource", "Semaphore"]


class Resource:
    """A pool of ``capacity`` identical slots granted in FIFO order.

    Usage from a callback chain::

        def start(self):
            res.acquire(self._granted)       # at once if a slot is free

        def _granted(self, _arg):
            sim.call_after(service_time, self._served)

        def _served(self, _arg):
            res.release()

    A process waits through an event it builds itself, passing the
    event's ``succeed`` as ``then`` and yielding the event.

    Release after the wait, not in a ``finally``: the collector closes
    the suspended generators of a dropped simulation, and a release
    there would hand the slot to a waiter and resume that dead
    simulation's processes from inside ``gc.collect()``.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        # the continuations of queued acquires, granted in FIFO order
        self._waiters: Deque[Callable[[Any], None]] = deque()
        # Time-weighted busy accounting for utilization reports.
        self._busy_area = 0.0
        self._last_change = 0.0
        # Pending busy-area split points (heap).  ``CoreGroup.hold``
        # (repro.hw.cpu) books back-to-back core jobs as one charge;
        # registering the stepwise chain's intermediate release/re-acquire
        # timestamps here keeps the _busy_area float summation split at
        # exactly the same points, so utilization stays byte-identical
        # to the same charges run one job after another.
        self._splits: list = []
        # Virtual occupancies (heap of expiry times).  A fused
        # fire-and-forget charge (CoreGroup.charge_wall) holds its slot
        # until a known future instant without scheduling a release event:
        # every pool query first expires lazy charges whose time has come,
        # replaying the stepwise release's float accounting at the exact
        # expiry instant.  Only when a waiter actually queues is a real
        # wake materialized (at the earliest expiry), so the uncontended
        # case — the overwhelming majority — costs zero events.
        self._lazy: list = []
        self._lazy_armed = False

    @property
    def in_use(self) -> int:
        if self._lazy:
            self._expire(self.sim._now)
        return self._in_use

    @property
    def queue_len(self) -> int:
        return len(self._waiters)

    def note_split(self, when: float) -> None:
        """Record a future busy-area summation point (see ``_splits``)."""
        heappush(self._splits, when)

    def charge_until(self, when: float) -> None:
        """Convert a slot the caller just acquired into a virtual
        occupancy expiring at ``when`` (see ``_lazy``).  The caller must
        have obtained the slot via :meth:`try_acquire` (so no waiters
        exist) and must not call :meth:`release` for it."""
        heappush(self._lazy, when)

    def _expire(self, now: float) -> None:
        """Retire lazy charges due by ``now``, replaying the stepwise
        release bookkeeping at each expiry instant in time order."""
        lazy = self._lazy
        while lazy and lazy[0] <= now:
            t = heappop(lazy)
            if self._waiters:
                # A release with waiters hands the slot over directly;
                # occupancy (and the busy-area sum) is unchanged.
                self._waiters.popleft()(None)
            else:
                if self._splits:
                    self._consume_splits(t)
                self._busy_area += self._in_use * (t - self._last_change)
                self._last_change = t
                self._in_use -= 1

    def _lazy_wake(self, _ev=None) -> None:
        """Materialized wake at the earliest lazy expiry: retire due
        charges (granting queued waiters) and re-arm if more remain."""
        self._lazy_armed = False
        self._expire(self.sim._now)
        if self._waiters and self._lazy and not self._lazy_armed:
            self._lazy_armed = True
            self.sim.call_at(self._lazy[0], self._lazy_wake)

    def _consume_splits(self, now: float) -> None:
        splits = self._splits
        while splits and splits[0] <= now:
            t = heappop(splits)
            if t > self._last_change:
                self._busy_area += self._in_use * (t - self._last_change)
                self._last_change = t

    def _account(self) -> None:
        now = self.sim.now
        if self._lazy:
            self._expire(now)
        if self._splits:
            self._consume_splits(now)
        self._busy_area += self._in_use * (now - self._last_change)
        self._last_change = now

    def try_acquire(self) -> bool:
        """Grab a free slot now; returns False if the caller must fall
        back to :meth:`acquire` and wait.  This is the hot-path front
        door: ``if r.try_acquire(): ... else: r.acquire(then)``.
        """
        now = self.sim._now
        if self._lazy:
            self._expire(now)
        if self._in_use < self.capacity and not self._waiters:
            if self._splits:
                self._consume_splits(now)
            self._busy_area += self._in_use * (now - self._last_change)
            self._last_change = now
            self._in_use += 1
            return True
        return False

    def acquire(self, then: Callable[[Any], None]) -> None:
        """Run ``then(None)`` once a slot is granted: at once when one is
        free and nobody queues, else at the FIFO hand-over."""
        if self._lazy:
            self._expire(self.sim._now)
        if self._in_use < self.capacity and not self._waiters:
            self._account()
            self._in_use += 1
            then(None)
        else:
            self._waiters.append(then)
            if self._lazy and not self._lazy_armed:
                self._lazy_armed = True
                self.sim.call_at(self._lazy[0], self._lazy_wake)

    def release(self) -> None:
        now = self.sim._now
        if self._lazy:
            self._expire(now)
        if self._in_use <= 0:
            raise SimulationError("release of idle resource %r" % self.name)
        if self._waiters:
            # Hand the slot directly to the next waiter; occupancy unchanged.
            self._waiters.popleft()(None)
        else:
            # _account() inlined: lazy charges are already expired.
            if self._splits:
                self._consume_splits(now)
            self._busy_area += self._in_use * (now - self._last_change)
            self._last_change = now
            self._in_use -= 1

    def utilization(self, since: float = 0.0) -> float:
        """Mean fraction of capacity busy over [since, now]."""
        self._account()
        span = self.sim.now - since
        if span <= 0:
            return 0.0
        return self._busy_area / (span * self.capacity)

    def reset_utilization(self) -> None:
        self._account()
        self._busy_area = 0.0
        self._last_change = self.sim.now


class Semaphore:
    """Counting semaphore with FIFO wakeup: :meth:`down` takes a
    continuation like :meth:`Resource.acquire`."""

    def __init__(self, sim: Simulator, initial: int = 0, name: str = ""):
        if initial < 0:
            raise ValueError("initial count must be >= 0")
        self.sim = sim
        self.name = name
        self._count = initial
        self._waiters: Deque[Callable[[Any], None]] = deque()

    @property
    def count(self) -> int:
        return self._count

    def try_down(self) -> bool:
        """Take one count now if one is free and nobody queues."""
        if self._count > 0 and not self._waiters:
            self._count -= 1
            return True
        return False

    def down(self, then: Callable[[Any], None]) -> None:
        """Run ``then(None)`` once a count is taken: at once when one is
        free, else at the FIFO wakeup of a later :meth:`up`."""
        if self.try_down():
            then(None)
        else:
            self._waiters.append(then)

    def up(self, n: int = 1) -> None:
        for _ in range(n):
            if self._waiters:
                self._waiters.popleft()(None)
            else:
                self._count += 1
