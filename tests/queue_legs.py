"""The two ways the scheduling pins keep the engine's queue.

The engine's queue is a binary heap of the distinct pending instants
on the ``Simulator``, pushed and popped through ``repro.sim.core``'s
``heappush`` / ``heappop``, beside each instant's bucket of
continuations.  Its contract is ascending instants, whatever keeps
them, so the pins that name a queue run on two legs:

- ``heap``: the engine as it is.
- ``calendar``: the same instants kept as a one-day calendar, a single
  sorted list, inserted in order on push and popped from the front.  A
  sorted list is also a valid heap, so the engine's ``heap[0]`` peeks
  still read the head, and the pop order is ascending by
  construction.

A result that moves between the legs depends on how the queue is kept,
not on the order it promises.
"""

import contextlib
from bisect import insort
from unittest import mock

import pytest

from repro.sim import core as sim_core

QUEUE_LEGS = ("calendar", "heap")
both_legs = pytest.mark.parametrize("queue", QUEUE_LEGS)


def _pop_front(entries):
    return entries.pop(0)


@contextlib.contextmanager
def queue_leg(queue):
    """Run every ``Simulator`` inside the block on leg ``queue``."""
    if queue == "heap":
        yield
        return
    assert queue == "calendar", queue
    with mock.patch.object(sim_core, "heappush", insort), \
            mock.patch.object(sim_core, "heappop", _pop_front):
        # Not vacuous: a heap holds these three as [1.0, 3.0, 2.0].
        probe = sim_core.Simulator()
        for when in (3.0, 1.0, 2.0):
            probe.call_at(when, _pop_front)
        assert probe._heap == [1.0, 2.0, 3.0]
        yield
