"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim import (
    Gather,
    SimulationError,
    Simulator,
)


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    fired = []

    def proc(sim):
        yield sim.timeout(5.0)
        fired.append(sim.now)
        yield sim.timeout(2.5)
        fired.append(sim.now)

    sim.spawn(proc(sim))
    sim.run()
    assert fired == [5.0, 7.5]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_process_return_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        return 42

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.ok and p.value == 42


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise ValueError("boom")

    def waiter(sim, child):
        with pytest.raises(ValueError):
            yield child
        return "handled"

    child = sim.spawn(bad(sim))
    w = sim.spawn(waiter(sim, child))
    sim.run()
    assert w.value == "handled"


def test_event_succeed_once():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(7)
    assert ev.value == 7
    with pytest.raises(SimulationError):
        ev.succeed(8)


def test_event_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_fifo_ordering_same_timestamp():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in "abc":
        sim.spawn(proc(sim, tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_gather_reports_slot_and_event_children_in_order():
    """A child reports through its slot whenever it lands: at its own
    queue entry, or from a process a test runs."""
    sim = Simulator()
    gather = Gather()
    sim.call_after(3.0, gather.slot(), "x")
    local = gather.slot()

    def child(sim, report):
        value = yield sim.timeout(1.0, "z")
        report(value)

    sim.spawn(child(sim, gather.slot()))
    sim.call_after(2.0, local, "y")
    got = []
    gather.wait(lambda values: got.append((sim.now, values)))
    sim.run()
    assert got == [(3.0, ["x", "y", "z"])]


def test_gather_continues_inside_the_last_report():
    sim = Simulator()
    gather = Gather()
    first, last = gather.slot(), gather.slot()
    got = []
    gather.wait(got.append)
    first(1)
    assert got == []
    last(2)  # the continuation runs in this call, not at a later entry
    assert got == [[1, 2]]
    assert sim.events_scheduled == 0


def test_gather_continues_at_once_when_every_child_reported():
    sim = Simulator()
    gather = Gather()
    gather.slot()("a")
    sim.call_at(0.0, gather.slot(), "b")
    sim.run()
    got = []
    gather.wait(got.append)
    assert got == [["a", "b"]]


def test_empty_gather_continues_at_once():
    got = []
    Gather().wait(got.append)
    assert got == [[]]


def test_run_until_limit_pauses_at_time():
    sim = Simulator()
    done = []

    def proc(sim):
        yield sim.timeout(10.0)
        done.append(True)

    sim.spawn(proc(sim))
    sim.run(until=5.0)
    assert sim.now == 5.0 and not done
    sim.run()
    assert done


def test_run_until_event():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(3.0)
        return "v"

    p = sim.spawn(proc(sim))
    assert sim.run_until_event(p) == "v"


def test_run_until_event_drained_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        sim.run_until_event(ev)


def test_yield_non_event_fails_process():
    sim = Simulator()

    def bad(sim):
        yield 42

    p = sim.spawn(bad(sim))
    sim.run()
    assert not p.ok
    assert isinstance(p.value, SimulationError)


def test_nested_process_spawning():
    sim = Simulator()
    results = []

    def child(sim, n):
        yield sim.timeout(n)
        return n * 2

    def parent(sim):
        val = yield sim.spawn(child(sim, 3))
        results.append(val)
        val = yield sim.spawn(child(sim, 4))
        results.append(val)

    sim.spawn(parent(sim))
    sim.run()
    assert results == [6, 8]
    assert sim.now == 7.0
