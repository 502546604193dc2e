"""A standalone :class:`~repro.sim.link.BatchingLink`, pinned on its own.

The drain loop's rule: a round sends everything queued, then sleeps out
the wire-clear wait as one queue entry; a send during that wait leaves
in the next round, at the wait's end, and a send that finds the link
parked goes out at once.  A scripted schedule checks the rule with exact
delivery instants and ``events_scheduled``.  The cluster digests check
it only indirectly, so a seeded random driver also runs three links
(aggregation on with a tight ``max_batch_bytes`` cap, aggregation on
with the default cap, aggregation off) on one simulator, aiming sends
and unrelated events before, exactly at, and after the instant each
busy link's idle wait ends, read off the wire.  The whole delivery
trace, interleaved with the unrelated events, is digested in firing
order.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.sim.core import Simulator
from repro.sim.link import BatchingLink

from .pins import pinned
from .queue_legs import QUEUE_LEGS, queue_leg


class _Driver:
    """Seeded send schedule over three links; records what it aimed at."""

    def __init__(self, sim: Simulator, seed: int, steps: int):
        self.sim = sim
        self.rng = random.Random(seed)
        self.trace = []
        self.aims = {"before": 0, "at": 0, "after": 0, "tick_at": 0,
                     "burst": 0}
        self.payload = 0
        self.links = [
            BatchingLink(sim, bandwidth_gbps=10.0, overhead_us=0.3,
                         propagation_us=0.7, deliver=self._deliver("a"),
                         aggregation=True, max_batch_bytes=1024, name="a"),
            BatchingLink(sim, bandwidth_gbps=25.0, overhead_us=0.2,
                         propagation_us=0.0, deliver=self._deliver("b"),
                         aggregation=True, name="b"),
            BatchingLink(sim, bandwidth_gbps=10.0, overhead_us=0.25,
                         propagation_us=0.5, deliver=self._deliver("c"),
                         aggregation=False, name="c"),
        ]
        self.steps = steps
        sim.call_at(0.0, self._step)

    def _deliver(self, tag):
        def deliver(dest, payloads):
            self.trace.append((self.sim.now, tag, dest, tuple(payloads)))
        return deliver

    def _send(self, link, n=1):
        rng = self.rng
        for _ in range(n):
            self.payload += 1
            link.send(rng.randrange(3), rng.choice((24, 64, 200, 480, 900)),
                      self.payload)

    def _tick(self, link):
        # an unrelated event at the end of an idle wait; half of them
        # send on the link, which shows whether the wait fired ahead of them
        self.trace.append((self.sim.now, "tick", link.name))
        if self.rng.random() < 0.5:
            self._send(link)

    def _targets(self, now):
        """(link, instant) pairs to aim at: the instant each busy link's
        idle wait ends, read off the wire (``link._busy_until``) with the
        round's own float expression."""
        return [(ln, now + (ln.link._busy_until - now)) for ln in self.links
                if ln.link._busy_until > now]

    def _step(self, _ev):
        rng, sim = self.rng, self.sim
        self.steps -= 1
        link = rng.choice(self.links)
        if rng.random() < 0.15:
            self.aims["burst"] += 1
            self._send(link, rng.randrange(2, 7))
        else:
            self._send(link)
        if self.steps <= 0:
            return
        now = sim.now
        targets = self._targets(now)
        if targets and rng.random() < 0.75:
            target, end = rng.choice(targets)
            aim = rng.choice(("before", "at", "after", "tick_at"))
            self.aims[aim] += 1
            if aim == "tick_at":
                sim.call_at(end, lambda _e, ln=target: self._tick(ln))
                aim = rng.choice(("before", "at"))
            if aim == "before":
                when = now + (end - now) * rng.random()
            elif aim == "after":
                when = end + rng.choice((1e-9, 0.05, 0.5))
            else:
                when = end
        else:
            when = now + rng.choice((0.0, 0.05, 0.4, 1.5, 6.0))
        sim.call_at(when, self._step)


WIRE_SEEDS = range(1, 41)


@pytest.mark.parametrize("queue", QUEUE_LEGS)
def test_batching_link_wire_aimed_trace_pinned(queue):
    """600 steps per seed over 40 seeds, aimed at the wire's idle
    instants, on either queue leg: the pin ``link.wire_aimed`` is (the
    digest of every seed's trace and packet counts, packets per link
    over all seeds, events scheduled over all seeds)."""
    runs, packets, events = [], [0, 0, 0], 0
    with queue_leg(queue):
        for seed in WIRE_SEEDS:
            sim = Simulator()
            drv = _Driver(sim, seed, steps=600)
            sim.run()
            assert all(drv.aims.values()), (seed, drv.aims)
            sent = tuple(ln.packets_sent for ln in drv.links)
            runs.append((drv.trace, sent))
            packets = [a + b for a, b in zip(packets, sent)]
            events += sim.events_scheduled
    got = hashlib.sha256(repr(runs).encode()).hexdigest()[:16]
    pinned("link.wire_aimed", (got, packets, events))


def test_idle_wait_is_one_entry_and_a_parked_send_goes_at_once():
    """One link, 1,000 bytes per microsecond, 0.5 us per packet and
    1 us of propagation, so every instant below is exact."""
    sim = Simulator()
    got = []
    ln = BatchingLink(sim, bandwidth_gbps=8.0, overhead_us=0.5,
                      propagation_us=1.0, name="l",
                      deliver=lambda dest, payloads: got.append(
                          (sim.now, dest, list(payloads))))
    ln.send(0, 1000, "p1")
    assert sim.events_scheduled == 1        # the first round, at now
    sim.run(until=0.5)
    # p1 is on the wire until 1.5 (delivered at 2.5); the round then
    # sleeps out the wire-clear wait: one entry, at 1.5.
    assert sim.events_scheduled == 3
    assert ln.link._busy_until == 1.5 and not ln._parked
    ln.send(1, 500, "p2")
    sim.run(until=1.0)
    ln.send(1, 500, "p3")
    assert sim.events_scheduled == 3        # sends inside the wait push nothing
    assert ln.packets_sent == 1
    sim.run(until=1.5)
    # The wait's entry ran the next round: p2 and p3 left at 1.5 as one
    # packet (delivered at 4.0), and the next wait ends at 3.0.
    assert ln.packets_sent == 2 and ln.link._busy_until == 3.0
    assert sim.events_scheduled == 5
    sim.run(until=5.0)
    # That wait found the queue empty and parked, pushing nothing.
    assert ln._parked and sim.events_scheduled == 5
    ln.send(0, 1000, "p4")
    # A send to a parked link goes out at once: on the wire until 6.5,
    # delivered at 7.5, with one wait entry at 6.5.
    assert not ln._parked and ln.packets_sent == 3
    assert ln.link._busy_until == 6.5 and sim.events_scheduled == 7
    sim.run()
    assert got == [(2.5, 0, ["p1"]), (4.0, 1, ["p2", "p3"]),
                   (7.5, 0, ["p4"])]
    assert ln._parked and ln.payloads_sent == 4
    assert sim.events_scheduled == 7
