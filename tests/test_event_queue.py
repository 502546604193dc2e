"""Scheduler edge cases on the engine's one event queue: a binary heap
of the distinct pending instants on the ``Simulator``, each with a
bucket of its continuations in push order.  Its contract is that
continuations fire in ascending instant and, within an instant, in push
order, so the tests compare what it fires against that order computed
without a simulator: ``sorted((when, push_index))``, with the bucket
rule for ``events_scheduled`` (one per instant opened) restated beside
it.  The edge cases run on both legs of ``tests/queue_legs.py``: the
engine's heap and the same instants kept fully sorted.
"""

import pytest

from repro.sim import Simulator, Timeout
from repro.sim.equeue import selected_queue_kind

from .queue_legs import both_legs, queue_leg


# ---------------------------------------------------------------------------
# an empty simulator
# ---------------------------------------------------------------------------


@both_legs
def test_empty_queue_peek_time(queue):
    """An empty queue has no head to peek: ``step()`` fires nothing and
    ``run()`` returns ``now``."""
    with queue_leg(queue):
        sim = Simulator()
        assert not sim.step()
        assert sim.run() == 0.0
        assert sim.pending_events == 0 and sim.events_scheduled == 0
        # Still empty after a push/pop cycle; a bounded run lands on its
        # boundary with nothing to fire.
        Timeout(sim, 5.0)
        assert sim.pending_events == 1
        assert sim.run() == 5.0
        assert not sim.step()
        assert sim.pending_events == 0 and sim.events_scheduled == 1
        assert sim.run(until=7.5) == 7.5 and sim.now == 7.5


# ---------------------------------------------------------------------------
# equal-timestamp FIFO ordering
# ---------------------------------------------------------------------------


@both_legs
def test_equal_timestamp_fifo(queue):
    with queue_leg(queue):
        sim = Simulator()
        fired = []
        for i in range(50):
            sim.call_after(10.0, fired.append, i)
        sim.run()
    assert fired == list(range(50))


@both_legs
def test_fifo_across_bucket_boundaries(queue):
    # Interleave schedule order across many distinct deadlines, far
    # apart and close together: the pop order is still global (when,
    # schedule order).
    with queue_leg(queue):
        sim = Simulator()
        fired = []
        lanes = [3.0, 3.5, 100.25, 7.0, 100.25, 0.5, 3.0]
        expect = []
        for i, delay in enumerate(lanes * 40):
            sim.call_after(delay, fired.append, (delay, i))
            expect.append((delay, i))
        expect.sort()  # (when, schedule order) — FIFO within equal deadlines
        sim.run()
    assert fired == expect


def test_pop_order_matches_sorted_reference():
    sim = Simulator()
    out = []
    delays = [(i * 37 % 19) + (0.5 if i % 3 else 0.0) for i in range(400)]
    for i, d in enumerate(delays):
        sim.call_after(float(d), lambda i: out.append((sim.now, i)), i)
    sim.run()
    assert out == sorted((float(d), i) for i, d in enumerate(delays))


def test_mid_drain_pushes_land_in_order():
    sim = Simulator()
    fired = []

    def note(_arg):
        fired.append(sim.now)

    def at_one(_arg):
        fired.append(sim.now)
        # Pushed while the queue drains: one at now (behind the running
        # entry), one ahead of the queued head, one between queued ones.
        sim.call_after(0.0, note)
        sim.call_after(0.5, note)
        sim.call_after(2.0, note)

    sim.call_at(1.0, at_one)
    sim.call_at(2.0, note)
    sim.call_at(4.0, note)
    sim.run()
    assert fired == [1.0, 1.0, 1.5, 2.0, 3.0, 4.0]


def test_exception_leaves_the_rest_of_its_instant_queued():
    """A continuation's exception escapes ``run``; what the instant had
    not started, pushes made before the error included, stays pending and
    runs in push order on the next call."""
    sim = Simulator()
    fired = []

    def fail(_arg):
        sim.call_at(sim.now, fired.append, "late")
        raise KeyError("boom")

    sim.call_at(1.0, fired.append, "a")
    sim.call_at(1.0, fail)
    sim.call_at(1.0, fired.append, "b")
    sim.call_at(2.0, fired.append, "c")
    with pytest.raises(KeyError):
        sim.run()
    assert fired == ["a"] and sim.now == 1.0
    assert sim.pending_events == 3 and sim.events_scheduled == 2
    sim.call_at(1.0, fired.append, "after")
    assert sim.run() == 2.0
    assert fired == ["a", "b", "late", "after", "c"]
    assert sim.pending_events == 0 and sim._buckets == {}


# ---------------------------------------------------------------------------
# run(until) boundary
# ---------------------------------------------------------------------------


@both_legs
def test_run_until_leaves_live_head_past_boundary(queue):
    with queue_leg(queue):
        sim = Simulator()
        fired = []
        sim.call_after(50.0, lambda _arg: fired.append(sim.now))
        sim.run(until=49.999)
        assert fired == [] and sim.now == 49.999
        sim.run(until=50.0)
        assert fired == [50.0] and sim.now == 50.0


# ---------------------------------------------------------------------------
# property test: random op streams against a reference without a simulator
# ---------------------------------------------------------------------------


def _drive(ops, stepwise=False):
    """Replay one random op stream on a ``Simulator`` and return
    everything digest-visible: the fire log, the final clock and the
    scheduled-entry counter.  ``stepwise`` fires every entry through
    ``step()``; ``run(until)`` then only lands the clock."""
    sim = Simulator()
    log = []

    def fire(i):
        log.append(("fire", i, sim.now))

    for i, (kind, dt) in enumerate(ops):
        if kind == "push":
            sim.call_after(dt, fire, i)
            continue
        until = sim.now + dt
        if stepwise:
            heap = sim._heap
            while heap and heap[0] <= until:
                assert sim.step()
            fired = len(log)
            sim.run(until=until)
            assert len(log) == fired
        else:
            sim.run(until=until)
        log.append(("clock", sim.now))
    if stepwise:
        while sim.step():
            pass
    else:
        sim.run()
    return log, sim.now, sim.events_scheduled


def _reference(ops):
    """The same stream without a simulator: continuations fire in
    ``sorted((when, push_index))`` order, and a push counts as scheduled
    exactly when no pending continuation shares its instant (it opens
    that instant's bucket)."""
    clock = 0.0
    pending, log, scheduled = [], [], 0

    def fire(due):
        log.extend(("fire", i, when) for when, i in sorted(due))

    for i, (kind, dt) in enumerate(ops):
        if kind == "push":
            when = clock + dt
            if all(w != when for w, _ in pending):
                scheduled += 1
            pending.append((when, i))
            continue
        clock = clock + dt
        fire([e for e in pending if e[0] <= clock])
        pending = [e for e in pending if e[0] > clock]
        log.append(("clock", clock))
    fire(pending)
    if pending:
        clock = max(pending)[0]
    return log, clock, scheduled


_hyp = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# A few exact values beside the floats, so pushes collide on an instant
# and the bucket rule is exercised.
_delay = st.one_of(
    st.sampled_from((0.0, 0.5, 1.0)),
    st.integers(0, 4).map(float),
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False,
              allow_infinity=False),
)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), _delay),
        st.tuples(st.just("run"), _delay),
    ),
    max_size=50,
)


@settings(max_examples=30, deadline=None)
@given(ops=_ops)
# Three pushes at one instant (one bucket), a run landing on it, then
# pushes at the instant just drained and at a fresh one.
@example(ops=[("push", 1.0), ("push", 1.0), ("push", 1.0), ("push", 0.0),
              ("run", 1.0), ("push", 0.0), ("push", 0.0), ("push", 0.5),
              ("push", 0.5), ("push", 0.5), ("run", 0.25)])
def test_random_streams_match_sorted_reference(ops):
    """Random push/run(until) streams produce the same pop order, final
    clock and event counter through ``run()``, through a replay that
    fires only by ``step()``, and in the reference."""
    expect = _reference(ops)
    assert _drive(ops) == expect
    assert _drive(ops, stepwise=True) == expect


def test_queue_kind_metadata_roundtrip():
    """What the benchmark suite's result files record about the engine
    (their ``info`` block) is what a ``Simulator()`` actually runs."""
    from repro.sim.compiled import compiled_available, selected_compiled
    from repro.sim.fusion import selected_fusion

    sim = Simulator()
    assert selected_queue_kind() == "heap" and type(sim._heap) is list
    assert selected_fusion() == "on" and sim._push == sim._bucket_push
    assert selected_compiled() == "off" and compiled_available() is False


# ---------------------------------------------------------------------------
# the bucket rules (Simulator._bucket_push, Simulator.run), step by step
# ---------------------------------------------------------------------------


@both_legs
def test_bucket_rules_scripted_schedule(queue):
    """One scripted schedule pins the bucket rules: pushes at one instant
    fire in push order; a push at the running instant joins its bucket
    and counts nothing; ``pending_events`` excludes every started
    continuation, the running one included; ``run(until=t)`` runs all of
    ``t``, and ``step()`` one whole instant.  After every step the
    dispatch log, ``events_scheduled`` and ``pending_events`` must
    match."""
    with queue_leg(queue):
        _bucket_rules_scripted_schedule()


def _bucket_rules_scripted_schedule():
    sim = Simulator()
    log = []

    def state():
        return sim.events_scheduled, sim.pending_events

    def note(name):
        return lambda _arg: log.append((name, sim.now, sim.pending_events))

    def joiner(name, joined):
        def fn(_arg):
            log.append((name, sim.now, sim.pending_events))
            scheduled = sim.events_scheduled
            heap = list(sim._heap)
            sim.call_at(sim.now, note(joined))
            assert sim.events_scheduled == scheduled and sim._heap == heap
        return fn

    # The first push at an instant opens its bucket: one heap entry.
    sim.call_at(1.0, note("a"))
    assert state() == (1, 1) and sim._heap == [1.0]
    # Later pushes at that instant append to its bucket.
    sim.call_at(1.0, joiner("b", "d"))
    sim.call_at(1.0, note("c"))
    assert state() == (1, 3) and sim._heap == [1.0]
    sim.call_at(2.0, joiner("e", "g"))
    assert state() == (2, 4)

    # step() runs the whole instant in push order, "d" (pushed by "b"
    # while 1.0 runs) last; no started continuation counts as pending.
    assert sim.step()
    assert log == [("a", 1.0, 3), ("b", 1.0, 2), ("c", 1.0, 2),
                   ("d", 1.0, 1)]
    assert sim.now == 1.0 and state() == (2, 1) and 1.0 not in sim._buckets

    # run(until=t) runs all of t, pushes made while t runs included ...
    sim.call_at(2.0, note("f"))
    sim.call_at(3.0, note("h"))
    assert state() == (3, 3)
    sim.run(until=2.0)
    assert log[4:] == [("e", 2.0, 2), ("f", 2.0, 2), ("g", 2.0, 1)]
    assert sim.now == 2.0 and state() == (3, 1) and sim._heap == [3.0]
    # ... and a later push at t opens a new bucket there.
    sim.call_at(2.0, note("i"))
    assert state() == (4, 2)
    assert sim.step()
    assert log[7:] == [("i", 2.0, 1)] and state() == (4, 1)
    assert sim.run() == 3.0
    assert log[8:] == [("h", 3.0, 0)] and state() == (4, 0)
    assert sim._buckets == {} and not sim.step()
