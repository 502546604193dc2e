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

Determinism: events scheduled for the same timestamp fire in FIFO order of
scheduling (a monotonically increasing sequence number breaks ties), so a
simulation driven by seeded RNG streams is exactly reproducible.

Hot-path notes (see ``docs/PERFORMANCE.md``): the queue is a binary
heap (``heapq``) of mutable lists ``[when, seq, fn, arg]`` kept on the
:class:`Simulator`, and popping an entry retires it (clears it) and
runs ``fn(arg)``; a queued event is the entry ``_fire(event)``.  Every
scheduling site funnels through ``Simulator._riding_push``, which
assigns ``seq``.  Entries pushed at an instant that already has a
pending entry ride that *host* entry: the host turns into a batch in
place.  Events store their first callback in a dedicated slot so the
common single-waiter case allocates no list, and :meth:`Simulator.run`
pops and dispatches in one inlined loop.  Nothing cancels a scheduled
entry or interrupts a process, so an entry runs only by its own pop and
a process is resumed only by the one event it waits on.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, Generator, List, Optional

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self._ok is None else ("ok" if self._ok else "failed")
        return "<Event %s %s>" % (self._name or hex(id(self)), state)


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

    @property
    def alive(self) -> bool:
        return not self.triggered

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

    __slots__ = ("_now", "_heap", "_seq", "_riders_pending", "_open",
                 "_floors", "_hwm", "_push", "_batch", "_processes_spawned")

    def __init__(self):
        self._now = 0.0
        # The event queue: a heap of [when, seq, fn, arg] entries.  seq
        # is unique, so entries pop in strict (when, seq) order and a
        # comparison never reaches fn.
        self._heap: List[List[Any]] = []
        self._seq = 0  # entries ever pushed
        # Every scheduling path funnels through this one bound method,
        # which assigns seq numbers and absorbs pushes whose deadline
        # collides with a pending entry as riders on that entry instead
        # of growing the queue.
        self._push = self._riding_push
        # A host entry with riders runs this, bound once.
        self._batch = self._run_batch
        self._riders_pending = 0
        # High-water mark of every timestamp ever pushed: a push
        # strictly above it cannot collide with any pending entry, so
        # _riding_push skips the slot-table work entirely for monotone
        # (push-dominated) schedules.
        self._hwm = -1.0
        self._open: dict = {}
        # Parked drain chains (repro.sim.link.BatchingLink) by the
        # instant their skipped idle timeout would have fired.  The
        # first push at exactly that instant materializes the parked
        # link's wake (a ``call_at`` that runs its next round) *first*,
        # so it hosts the timestamp and fires ahead of the incoming
        # entry — the position the stepwise timeout (pushed at round
        # start, before anything else now pending there) would hold.
        self._floors: dict = {}
        self._processes_spawned = 0

    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Scheduled events not yet fired.  Zero means quiescence: in a
        closed discrete-event simulation no process can run again.
        Riders of an in-flight pop batch (``_riding_push``) are pending
        events that already left the queue, so they are counted in —
        without them a process resumed by the batch's host entry would
        see false quiescence while its same-instant cohort still waits
        to fire."""
        return len(self._heap) + self._riders_pending

    @property
    def events_scheduled(self) -> int:
        """Total queue entries pushed so far: the numerator of
        ``events_per_txn`` and of the exact events-per-op test gates."""
        return self._seq

    @property
    def processes_spawned(self) -> int:
        """Processes created so far by :meth:`spawn`.  Beside
        ``events_scheduled`` it tells a callback chain from a process on
        the same events: the chain schedules the same entries and spawns
        nothing."""
        return self._processes_spawned

    # -- scheduling -------------------------------------------------------

    def _riding_push(self, when: float, fn: Callable[[Any], None],
                     arg: Any) -> None:
        """Same-deadline rider merging (the queue-layer half of delay
        fusion).  Two entries with equal timestamps always pop
        consecutively in push order — nothing at another time can sort
        between them — so a push whose ``when`` collides with a *pending*
        queue entry need not enter the queue at all: it rides that host
        entry and runs, in attach order, right after the host's own
        continuation.  This is exact by construction: the dispatch
        sequence is byte-identical to the stepwise pop order.

        ``_open`` maps each timestamp to the entry pushed for it; the
        entry is non-empty iff it is still queued (its pop retires it:
        clears it before running it).  The first rider turns the host
        into a batch in place, ``[.., _run_batch, [(fn0, arg0), (fn,
        arg)]]``, and later riders append to that list.  A popped host
        is simply replaced: the new entry pops after any in-flight
        batch, matching the seq order one queue entry per push would
        have produced."""
        floors = self._floors
        if floors:
            parked = floors.pop(when, None)
            if parked is not None:
                for ln in parked:
                    ln._materialize(when)
        if when > self._hwm:
            # Fresh high-water mark: no entry was ever pushed at this
            # instant, so the slot probe below cannot find a host.  Skip
            # the dict work — the entry goes unregistered, and the first
            # *follower* at this timestamp claims the slot and hosts any
            # later riders.  Dispatch order is unchanged either way:
            # same-instant entries fire in (when, seq) order whether the
            # first one hosts or merely precedes the host in the queue.
            self._hwm = when
            self._seq = seq = self._seq + 1
            heappush(self._heap, [when, seq, fn, arg])
            return
        open_ = self._open
        host = open_.get(when)
        if host:
            batch = self._batch
            if host[2] is batch:
                host[3].append((fn, arg))
            else:
                host[3] = [(host[2], host[3]), (fn, arg)]
                host[2] = batch
            self._riders_pending += 1
            return
        self._seq = seq = self._seq + 1
        open_[when] = entry = [when, seq, fn, arg]
        heappush(self._heap, entry)
        if len(open_) >= 8192 and len(open_) > (len(self._heap) << 2):
            # The slot table only ever grows on distinct timestamps;
            # shed popped hosts once it dwarfs the live queue.
            self._open = {w: e for w, e in open_.items() if e}

    def _run_batch(self, batch: List[Any]) -> None:
        """A host entry's continuation once riders joined it: the host's
        own ``fn(arg)``, then each rider in attach order, each leaving
        the pending count just before it runs."""
        # The host is no rider: the increment cancels its decrement.
        self._riders_pending += 1
        for fn, arg in batch:
            self._riders_pending -= 1
            fn(arg)

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
        """Run one scheduled entry (a host runs its same-deadline riders
        too, in attach order); returns False if the queue is empty."""
        heap = self._heap
        if not heap:
            return False
        entry = heappop(heap)
        when, _seq, fn, arg = entry
        entry.clear()
        self._now = when
        fn(arg)
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains, or until simulated time ``until``.

        Returns the simulated time at which execution stopped: the last
        event time when draining, exactly ``until`` otherwise.  Events
        scheduled past ``until`` are never fired.

        Both forms run :meth:`step`'s pop, clear and dispatch in one
        inlined loop, collector-quiet (``repro.sim.collector``):
        steady-state simulation frees its state by reference count, so
        automatic collections are deferred to the caller's next
        allocation after the drain returns.
        """
        if until is None:
            until = inf
        elif until < self._now:
            raise SimulationError("until=%r is in the past" % (until,))
        heap = self._heap
        pop = heappop
        with collector_quiet:
            while heap and heap[0][0] <= until:
                entry = pop(heap)
                when, _seq, fn, arg = entry
                entry.clear()
                self._now = when
                fn(arg)
        # The loop only fires entries <= until, so the clock never
        # overruns; a bounded run lands exactly on the boundary.
        if self._now < until < inf:
            self._now = until
        return self._now

    def run_until_event(self, event: Event, limit: Optional[float] = None) -> Any:
        """Run until ``event`` triggers; returns its value.

        Raises :class:`SimulationError` if the queue drains (or ``limit`` is
        reached) without the event firing.
        """
        heap = self._heap
        with collector_quiet:
            while not event.triggered:
                if limit is not None and heap and heap[0][0] > limit:
                    raise SimulationError(
                        "time limit reached before event fired")
                if not self.step():
                    raise SimulationError(
                        "simulation drained before event fired")
        if not event.ok:
            raise event.value
        return event.value
