"""Discrete-event simulation core.

A small, deterministic discrete-event engine in the style of SimPy,
specialized for this reproduction.  Simulated time is measured in
**microseconds** (float).  The models are callback chains, and every
queue entry is a continuation: :meth:`Simulator.call_at` and
:meth:`Simulator.call_after` schedule ``fn(arg)`` with no event built.
Every model call that waits takes a continuation ``then(value)`` too —
a core job, a verb, a DMA, a log append, a request, a resource grant —
and a fan-out continues through one join, :class:`Gather`.  So an
:class:`Event` exists only where a process waits: a :class:`Process`
runs a generator that yields events, and only the harness's clients,
the examples and the tests are processes.  A client's transaction
builds one event (``Coordinator.run_transaction``); a process that
waits on a model call builds its own and passes its ``succeed`` as the
call's ``then``.

Determinism: continuations scheduled for the same instant fire in the
order they were pushed, so a simulation driven by seeded RNG streams is
exactly reproducible.

Hot-path notes (see ``docs/PERFORMANCE.md``): the queue is one entry
per instant.  :class:`Simulator` keeps a binary heap (``heapq``) of the
distinct pending instants, plain floats, and a dict from each instant to
its bucket: the continuations pushed there, in push order, as one flat
``[fn, arg, fn, arg, ...]`` list.  Every scheduling site funnels through
``Simulator._push``: a push at an instant that has a bucket appends to
it, and only the first push at an instant touches the heap.
:meth:`Simulator.run` pops an instant and runs its bucket in one
inlined loop; the bucket stays open while it runs, so a push at the
running instant joins its end.  A queued event is the continuation
``_fire(event)``.  Events store their first callback in a dedicated
slot so the common single-waiter case allocates no list.  Nothing
cancels a scheduled continuation or interrupts a process, so a
continuation runs only from its own bucket and a process is resumed
only by the one event it waits on.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, Dict, Generator, List, Optional

from .collector import collector_quiet

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Gather",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation engine (e.g. double-trigger)."""


class Event:
    """A one-shot occurrence that processes may wait on.

    An event starts *pending*; it may be *succeeded* with a value or
    *failed* with an exception, exactly once.  The processes waiting on
    it (:class:`Process` registers itself when it yields the event) run
    when it fires.

    The first waiter lives in ``_cb0``; only a second registration
    allocates the overflow list, so the usual one-waiter event (the one
    a process yields) never builds a list at all.
    """

    __slots__ = ("sim", "_cb0", "_callbacks", "_ok", "_value", "_name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self._cb0: Optional[Callable[["Event"], None]] = None
        self._callbacks: Optional[List[Callable[["Event"], None]]] = None
        self._ok: Optional[bool] = None
        self._value: Any = None
        self._name = name

    @property
    def triggered(self) -> bool:
        return self._ok is not None

    @property
    def ok(self) -> bool:
        """True once the event has succeeded."""
        return self._ok is True

    @property
    def value(self) -> Any:
        if self._ok is None:
            raise SimulationError("event %r has not been triggered" % (self._name,))
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._ok is not None:
            raise SimulationError("event %r already triggered" % (self._name,))
        self._ok = True
        self._value = value
        self._dispatch()
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._ok is not None:
            raise SimulationError("event %r already triggered" % (self._name,))
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exc
        self._dispatch()
        return self

    def _dispatch(self) -> None:
        cb0 = self._cb0
        callbacks = self._callbacks
        self._cb0 = None
        self._callbacks = None
        if cb0 is not None:
            cb0(self)
        if callbacks:
            for fn in callbacks:
                fn(self)


def _fire(ev: Event) -> None:
    """The continuation of a queued event: it fires with the value it
    was built with."""
    ev._ok = True
    ev._dispatch()


# What a process's first resume sees: a fired event carrying None.
_STARTED = Event(None, "start")  # type: ignore[arg-type]
_STARTED._ok = True


class Timeout(Event):
    """An event that fires ``delay`` microseconds after creation, for a
    process to yield.  A callback chain schedules its next stage with
    :meth:`Simulator.call_after` instead."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError("negative timeout delay: %r" % (delay,))
        # Fast path: bypass Event.__init__ (delay >= 0 means the
        # deadline can never be in the past).  The value rides the
        # event; ``_ok`` stays None until the entry pops.
        self.sim = sim
        self._cb0 = None
        self._callbacks = None
        self._ok = None
        self._value = value
        self._name = "timeout"
        sim._push(sim._now + delay, _fire, self)


class Gather:
    """The join of one fan-out.

    A child joins through :meth:`slot`, which hands back the ``then`` it
    reports its value through: a local handler's, a request's, a verb's
    or a DMA op's continuation.  Once the parent waits (:meth:`wait`)
    and every child has reported, the parent continues with the values
    in child order: from inside the last report, or at once if every
    child reported before the wait.

    A gather owns no queue entry and pushes nothing.  The children's
    reports hold the gather and the gather holds only the parent's
    continuation, so a parent that keeps no reference to its gather
    while it waits is freed by reference count."""

    __slots__ = ("values", "left", "then")

    def __init__(self):
        self.values: List[Any] = []
        self.left = 0
        self.then: Optional[Callable[[List[Any]], None]] = None

    def slot(self) -> Callable[[Any], None]:
        """Join a new child; returns its report, ``report(value)``."""
        values = self.values
        values.append(None)
        self.left += 1
        return partial(self._put, len(values) - 1)

    def wait(self, then: Callable[[List[Any]], None]) -> None:
        """Continue with ``then(values)`` once every child has reported."""
        if self.left:
            self.then = then
        else:
            then(self.values)

    def _put(self, i: int, value: Any) -> None:
        self.values[i] = value
        self.left -= 1
        if not self.left and self.then is not None:
            self.then(self.values)


def _raise(exc: BaseException) -> None:
    """throw() shim for processes built from plain iterators."""
    raise exc


class Process(Event):
    """A running coroutine.  Also an event: it fires with the generator's
    return value when the generator completes, or fails with its uncaught
    exception."""

    __slots__ = ("_gen", "_send", "_gthrow", "_wait_cb")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        self._gen = gen
        # Bind the generator's send/throw and our wait callback once: the
        # resume path runs once per yield across the whole simulation, and
        # each `self._gen.send` / `self._resume` attribute access would
        # allocate a fresh bound method.  Plain iterators (no coroutine
        # protocol) still work through next()/raise shims.
        try:
            self._send = gen.send
            self._gthrow = gen.throw
        except AttributeError:
            self._send = lambda _v: next(gen)
            self._gthrow = _raise
        # Wakeups call _resume directly: a process waits on one event at
        # a time and that event fires once, so no intermediate callback
        # frame is needed on the per-yield path.  This and the two
        # bindings above make self reachable from self; all four slots
        # are cleared when the generator completes, so a finished process
        # is freed by reference count, not by the cycle collector.
        self._wait_cb = self._resume
        # Start on the next scheduler step so the spawner can keep a handle.
        sim._push(sim._now, self._wait_cb, _STARTED)

    # -- internal ---------------------------------------------------------

    def _resume(self, ev: Event) -> None:
        try:
            if ev._ok:
                target = self._send(ev._value)
            else:
                target = self._gthrow(ev._value)
        except StopIteration as stop:
            self._gen = self._send = self._gthrow = self._wait_cb = None
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate to waiters
            self._gen = self._send = self._gthrow = self._wait_cb = None
            self.fail(exc)
            return
        # The callback registration runs once per yield across the whole
        # simulation, so it is open-coded.
        if isinstance(target, Event):
            if target._ok is None:
                if target._cb0 is None:
                    target._cb0 = self._wait_cb
                elif target._callbacks is None:
                    target._callbacks = [self._wait_cb]
                else:
                    target._callbacks.append(self._wait_cb)
            else:
                self._resume(target)  # already triggered: continue now
        else:
            self.fail(
                SimulationError(
                    "process %r yielded a non-event: %r" % (self._name, target)
                )
            )


class Simulator:
    """The event loop and simulated clock.

    Typical use::

        sim = Simulator()

        def worker(sim):
            yield sim.timeout(5.0)
            return "done"

        proc = sim.spawn(worker(sim))
        sim.run()
        assert proc.value == "done"
    """

    __slots__ = ("_now", "_heap", "_buckets", "_queued", "_push",
                 "_processes_spawned")

    def __init__(self):
        self._now = 0.0
        # The event queue: a heap of the distinct pending instants, and
        # each instant's bucket, its continuations in push order as one
        # flat [fn, arg, fn, arg, ...] list.  A running bucket stays in
        # _buckets until it is done, so a push at the running instant
        # joins it; a started slot's fn is set to None.
        self._heap: List[float] = []
        self._buckets: Dict[float, List[Any]] = {}
        self._queued = 0  # instants ever pushed onto the heap
        # Every scheduling path funnels through this one bound method.
        self._push = self._bucket_push
        self._processes_spawned = 0

    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Continuations pushed and not yet started; the running one is
        excluded.  Zero means quiescence: in a closed discrete-event
        simulation no process can run again.  Counted on read: every
        bucket's slots, less the started ones of the running bucket."""
        buckets = self._buckets
        slots = sum(map(len, buckets.values()))
        running = buckets.get(self._now)
        if running is not None:
            slots -= 2 * running[::2].count(None)
        return slots >> 1

    @property
    def events_scheduled(self) -> int:
        """Instants pushed onto the queue so far, one per bucket opened:
        the numerator of ``events_per_txn`` and of the exact
        events-per-op test gates.  A push that joins a pending or
        running instant's bucket costs no heap operation and counts
        nothing."""
        return self._queued

    @property
    def processes_spawned(self) -> int:
        """Processes created so far by :meth:`spawn`.  Beside
        ``events_scheduled`` it tells a callback chain from a process on
        the same events: the chain schedules the same entries and spawns
        nothing."""
        return self._processes_spawned

    # -- scheduling -------------------------------------------------------

    def _bucket_push(self, when: float, fn: Callable[[Any], None],
                     arg: Any) -> None:
        """Append ``fn(arg)`` to the bucket of instant ``when``, opening
        the bucket (and pushing ``when`` onto the heap) if there is none.
        Continuations at one instant fire in push order, which is the
        order one ``(when, seq)`` heap entry per push would pop them in."""
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [fn, arg]
            heappush(self._heap, when)
            self._queued += 1
        else:
            bucket.append(fn)
            bucket.append(arg)

    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def call_at(self, when: float, fn: Callable[[Any], None],
                arg: Any = None) -> None:
        """Schedule ``fn(arg)`` at *absolute* simulated time ``when``
        (must be >= now — not checked, hot path).  No event is built:
        the entry itself is the continuation.

        A fused delay chain replacing ``call_after(a) → call_after(b)``
        must land on exactly the float timestamp ``(now + a) + b``,
        which ``call_after(a + b)`` does not guarantee (float addition
        is not associative)."""
        self._push(when, fn, arg)

    def call_after(self, delay: float, fn: Callable[[Any], None],
                   arg: Any = None) -> None:
        """Schedule ``fn(arg)`` ``delay`` microseconds from now, at
        exactly the instant ``Timeout(sim, delay)`` fires."""
        if delay < 0:
            raise ValueError("negative timeout delay: %r" % (delay,))
        self._push(self._now + delay, fn, arg)

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Register a generator as a concurrently running process."""
        self._processes_spawned += 1
        return Process(self, gen, name=name)

    # -- execution --------------------------------------------------------

    def step(self) -> bool:
        """Run the earliest pending instant: its whole bucket, pushes it
        makes at that instant included.  Returns False if none is
        pending."""
        heap = self._heap
        if not heap:
            return False
        self.run(heap[0])
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains, or until simulated time ``until``.

        Returns the simulated time at which execution stopped: the last
        event time when draining, exactly ``until`` otherwise.  Events
        scheduled past ``until`` are never fired; every one at ``until``
        is.

        The loop pops an instant and runs its bucket by index, marking
        each slot started before it runs; the bucket grows while it runs
        if a continuation pushes at the running instant, and is deleted
        once done.  A continuation's exception escapes, and what it did
        not reach stays queued.  The loop runs collector-quiet
        (``repro.sim.collector``): steady-state simulation frees its
        state by reference count, so automatic collections are deferred
        to the caller's next allocation after the drain returns.
        """
        if until is None:
            until = inf
        elif until < self._now:
            raise SimulationError("until=%r is in the past" % (until,))
        heap = self._heap
        buckets = self._buckets
        pop = heappop
        with collector_quiet:
            while heap and heap[0] <= until:
                self._now = when = pop(heap)
                bucket = buckets[when]
                i = 0
                try:
                    while i < len(bucket):
                        fn = bucket[i]
                        bucket[i] = None
                        fn(bucket[i + 1])
                        i += 2
                except BaseException:
                    # The error escapes with the rest of the instant
                    # still queued, so a caller that handles it can run on.
                    del bucket[:i + 2]
                    if bucket:
                        heappush(heap, when)
                    else:
                        del buckets[when]
                    raise
                del buckets[when]
        # The loop only fires entries <= until, so the clock never
        # overruns; a bounded run lands exactly on the boundary.
        if self._now < until < inf:
            self._now = until
        return self._now

    def run_until_event(self, event: Event, limit: Optional[float] = None) -> Any:
        """Run instant by instant until ``event`` triggers; returns its
        value.

        Raises :class:`SimulationError` if the queue drains (or ``limit`` is
        reached) without the event firing.
        """
        heap = self._heap
        with collector_quiet:
            while not event.triggered:
                if limit is not None and heap and heap[0] > limit:
                    raise SimulationError(
                        "time limit reached before event fired")
                if not self.step():
                    raise SimulationError(
                        "simulation drained before event fired")
        if not event.ok:
            raise event.value
        return event.value
