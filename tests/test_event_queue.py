"""Scheduler edge cases, exercised identically on both event-queue
implementations: the ``EventQueue`` contract says pop order and the
simulated clock are byte-identical between the calendar queue the
engine runs on and the heap kept as its reference, so every test here
is parametrized over both, passed as ``Simulator(queue=<instance>)``,
and several also assert cross-impl identity directly.
"""

import pytest

from repro.sim import Simulator, Timeout
from repro.sim.equeue import (
    CalendarEventQueue,
    HeapEventQueue,
    selected_queue_kind,
)

KINDS = (HeapEventQueue, CalendarEventQueue)
both_kinds = pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.kind)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_simulator_accepts_queue_instance_only():
    q = HeapEventQueue()
    sim = Simulator(queue=q)
    assert sim._q is q
    Timeout(sim, 1.0)
    assert len(q) == 1
    with pytest.raises(TypeError, match="EventQueue instance"):
        Simulator(queue="heap")


# ---------------------------------------------------------------------------
# empty-queue peek_time
# ---------------------------------------------------------------------------


@both_kinds
def test_empty_queue_peek_time(kind):
    q = kind()
    assert q.peek_time() is None
    assert q.pop_min() is None
    assert len(q) == 0
    # Still empty (and still None) after a push/pop cycle.
    sim = Simulator(queue=q)
    Timeout(sim, 5.0)
    assert q.peek_time() == 5.0
    sim.run()
    assert q.peek_time() is None
    assert q.pop_min() is None


# ---------------------------------------------------------------------------
# equal-timestamp FIFO ordering, including across bucket boundaries
# ---------------------------------------------------------------------------


@both_kinds
def test_equal_timestamp_fifo(kind):
    sim = Simulator(queue=kind())
    fired = []
    for i in range(50):
        Timeout(sim, 10.0).add_callback(lambda _e, i=i: fired.append(i))
    sim.run()
    assert fired == list(range(50))


@both_kinds
def test_fifo_across_bucket_boundaries(kind):
    # Interleave schedule order across many distinct deadlines so bucket
    # routing (calendar) must still produce global (when, seq) order.
    sim = Simulator(queue=kind())
    fired = []
    lanes = [3.0, 3.5, 100.25, 7.0, 100.25, 0.5, 3.0]
    expect = []
    for i, delay in enumerate(lanes * 40):
        Timeout(sim, delay).add_callback(
            lambda _e, i=i, d=delay: fired.append((d, i)))
        expect.append((delay, i))
    expect.sort()  # (when, schedule order) — FIFO within equal deadlines
    sim.run()
    assert fired == expect


def test_pop_order_identical_across_impls():
    def trace(kind):
        sim = Simulator(queue=kind())
        out = []
        delays = [(i * 37 % 19) + (0.5 if i % 3 else 0.0) for i in range(400)]
        for i, d in enumerate(delays):
            Timeout(sim, float(d)).add_callback(
                lambda _e, i=i: out.append((sim.now, i)))
        sim.run()
        return out

    assert trace(HeapEventQueue) == trace(CalendarEventQueue)


# ---------------------------------------------------------------------------
# run(until) boundary
# ---------------------------------------------------------------------------


@both_kinds
def test_run_until_leaves_live_head_past_boundary(kind):
    sim = Simulator(queue=kind())
    fired = []
    Timeout(sim, 50.0).add_callback(lambda _e: fired.append(sim.now))
    sim.run(until=49.999)
    assert fired == [] and sim.now == 49.999
    sim.run(until=50.0)
    assert fired == [50.0] and sim.now == 50.0


# ---------------------------------------------------------------------------
# calendar internals: rebalance keeps order and population
# ---------------------------------------------------------------------------


def test_calendar_rebalance_preserves_order_and_len():
    q = CalendarEventQueue(width=1.0)
    sim = Simulator(queue=q)
    fired = []
    # Sparse far-flung population to force a first-activation rebalance.
    n = 300
    for i in range(n):
        Timeout(sim, 1.0 + 97.0 * i).add_callback(
            lambda _e, i=i: fired.append(i))
    assert len(q) == n
    sim.run()
    assert fired == list(range(n))
    assert q.width != 1.0  # the load-factor trigger actually fired
    assert len(q) == 0


def test_calendar_push_into_active_band():
    q = CalendarEventQueue(width=8.0)
    sim = Simulator(queue=q)
    fired = []

    def proc():
        yield Timeout(sim, 1.0)
        fired.append(sim.now)
        # Schedule behind and ahead within the active band; both must
        # fire in timestamp order even though the band is mid-drain.
        Timeout(sim, 0.5).add_callback(lambda _e: fired.append(sim.now))
        Timeout(sim, 2.0).add_callback(lambda _e: fired.append(sim.now))

    sim.spawn(proc())
    sim.run()
    assert fired == [1.0, 1.5, 3.0]


# ---------------------------------------------------------------------------
# property test: random op streams, identical across every queue impl
# ---------------------------------------------------------------------------


def _drive(kind, ops):
    """Replay one random op stream on one queue implementation and
    return everything digest-visible: the fire log, the final clock,
    and the scheduled-event counter."""
    sim = Simulator(queue=kind())
    log = []
    pushed = 0
    for op in ops:
        if op[0] == "push":
            Timeout(sim, op[1]).add_callback(
                lambda _e, i=pushed: log.append(("fire", i, sim.now)))
            pushed += 1
        else:  # ("run", dt): bounded drain
            sim.run(until=sim.now + op[1])
            log.append(("clock", sim.now))
    sim.run()
    return log, sim.now, sim.events_scheduled


_hyp = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_delay = st.floats(min_value=0.0, max_value=1e4, allow_nan=False,
                   allow_infinity=False)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), _delay),
        st.tuples(st.just("run"), _delay),
    ),
    max_size=50,
)


@settings(max_examples=30, deadline=None)
@given(ops=_ops)
def test_random_streams_identical_across_impls(ops):
    """Random push/run(until) streams must produce the identical
    pop order, final clock, and event counter on the heap queue and the
    calendar queue."""
    assert _drive(HeapEventQueue, ops) == _drive(CalendarEventQueue, ops)


def test_queue_kind_metadata_roundtrip():
    """What the benchmark suite's result files record about the engine
    (their ``info`` block) is what a ``Simulator()`` actually runs."""
    from repro.sim.compiled import compiled_available, selected_compiled
    from repro.sim.fusion import selected_fusion

    sim = Simulator()
    assert selected_queue_kind() == sim._q.kind == "calendar"
    assert selected_fusion() == "on" and sim._push == sim._riding_push
    assert selected_compiled() == "off" and compiled_available() is False


# ---------------------------------------------------------------------------
# same-instant rider rules (Simulator._riding_push), step by step
# ---------------------------------------------------------------------------


@both_kinds
def test_rider_rules_scripted_schedule(kind):
    """One scripted schedule pins where each same-instant push goes: into
    the queue unregistered, into the queue as the instant's host, or onto
    the host as a rider.  After every ``step()`` the dispatch log,
    ``events_scheduled`` and ``pending_events`` must match; riders count
    as pending while they wait, but never as scheduled entries."""
    sim = Simulator(queue=kind())
    log = []

    def note(name):
        return lambda _arg: log.append((name, sim.now, sim.pending_events))

    def host(_arg):
        log.append(("b", sim.now, sim.pending_events))
        # Pushed while the host dispatches: the popped host no longer
        # takes riders, so this enters the queue behind the host's riders.
        sim.call_at(sim.now, note("d"))

    def state():
        return sim.events_scheduled, sim.pending_events

    # A push at a fresh high-water instant enters the queue unregistered.
    sim.call_at(1.0, note("a"))
    assert state() == (1, 1) and 1.0 not in sim._open
    # The next push at that instant claims the slot and enters the queue.
    sim.call_at(1.0, host)
    assert state() == (2, 2) and 1.0 in sim._open
    # A third push rides that entry: pending, but not a queue entry.
    sim.call_at(1.0, note("c"))
    assert state() == (2, 3)

    assert sim.step()
    assert log == [("a", 1.0, 2)] and state() == (2, 2)
    assert sim.step()
    assert log == [("a", 1.0, 2), ("b", 1.0, 1), ("c", 1.0, 1)]
    assert state() == (3, 1)
    assert sim.step()
    assert log[3:] == [("d", 1.0, 0)] and state() == (3, 0)
    assert not sim.step()

    # run(until=t) fires every entry at t, riders included ...
    sim.call_at(2.0, note("e"))
    sim.call_at(2.0, note("f"))
    sim.call_at(2.0, note("g"))
    assert state() == (5, 3)
    sim.run(until=2.0)
    assert log[4:] == [("e", 2.0, 2), ("f", 2.0, 1), ("g", 2.0, 0)]
    assert sim.now == 2.0 and state() == (5, 0)
    # ... and a later push at t enters the queue.
    sim.call_at(2.0, note("h"))
    assert state() == (6, 1)
    assert sim.step()
    assert log[7:] == [("h", 2.0, 0)] and state() == (6, 0)
