"""Unit tests for the Resource and Semaphore primitives."""

import pytest

from repro.sim import Resource, Semaphore, Simulator
from repro.sim.core import SimulationError

from .waits import waited


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    granted = []

    def proc(sim, tag):
        yield waited(sim, res.acquire)
        granted.append((sim.now, tag))
        yield sim.timeout(10.0)
        res.release()

    for tag in "abc":
        sim.spawn(proc(sim, tag))
    sim.run()
    times = dict((tag, t) for t, tag in granted)
    assert times["a"] == 0.0 and times["b"] == 0.0
    assert times["c"] == 10.0


def test_resource_fifo_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def proc(sim, tag):
        yield waited(sim, res.acquire)
        order.append(tag)
        yield sim.timeout(1.0)
        res.release()

    for tag in "abcd":
        sim.spawn(proc(sim, tag))
    sim.run()
    assert order == list("abcd")


def test_resource_release_idle_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_utilization_tracks_busy_time():
    sim = Simulator()
    res = Resource(sim, capacity=2)

    def proc(sim):
        yield waited(sim, res.acquire)
        yield sim.timeout(10.0)
        res.release()
        yield sim.timeout(10.0)

    sim.spawn(proc(sim))
    sim.run()
    # one of two slots busy for 10 of 20 us -> 25%
    assert res.utilization() == pytest.approx(0.25)


def test_semaphore_blocks_until_up():
    sim = Simulator()
    sem = Semaphore(sim, initial=0)
    seen = []

    def consumer(sim):
        yield waited(sim, sem.down)
        seen.append(sim.now)

    def producer(sim):
        yield sim.timeout(4.0)
        sem.up()

    sim.spawn(consumer(sim))
    sim.spawn(producer(sim))
    sim.run()
    assert seen == [4.0]


def test_semaphore_up_n():
    sim = Simulator()
    sem = Semaphore(sim, initial=0)
    sem.up(3)
    assert sem.count == 3
