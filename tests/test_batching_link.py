"""A standalone :class:`~repro.sim.link.BatchingLink` under a seeded random
send schedule, pinned on its own.

The drain loop's schedule is exact only through its same-instant
positions: a parked floor (the fused idle wait) must wake ahead of every
later-pushed event at that instant, and a send inside, at or past the
floor must reach the wire at the instant the stepwise loop would have
used.  The cluster digests check this only indirectly; here three links
(aggregation on with a tight ``max_batch_bytes`` cap, aggregation on with
the default cap, aggregation off) share one simulator and a driver that
reads each link's parked floor and aims sends and unrelated events
before, exactly at, and after it.  The whole delivery trace, interleaved
with the unrelated events, is digested in firing order.  A second driver
aims at the instant each link's idle wait ends instead, read off the
wire, so what it aims at does not depend on whether a round parked:
its trace is the same whichever rounds park.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.sim.core import Simulator
from repro.sim.link import BatchingLink

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
        # an unrelated event at a parked floor; half of them send on the
        # parked link, which shows whether the wake fired ahead of them
        self.trace.append((self.sim.now, "tick", link.name))
        if self.rng.random() < 0.5:
            self._send(link)

    def _targets(self, now):
        """(link, instant) pairs to aim at: each parked link's floor."""
        return [(ln, ln._floor) for ln in self.links if ln._floor > now]

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
            target, floor = rng.choice(targets)
            aim = rng.choice(("before", "at", "after", "tick_at"))
            self.aims[aim] += 1
            if aim == "tick_at":
                # pushed before any send inside the window arms a wake
                sim.call_at(floor, lambda _e, ln=target: self._tick(ln))
                aim = rng.choice(("before", "at"))
            if aim == "before":
                when = now + (floor - now) * rng.random()
            elif aim == "after":
                when = floor + rng.choice((1e-9, 0.05, 0.5))
            else:
                when = floor
        else:
            when = now + rng.choice((0.0, 0.05, 0.4, 1.5, 6.0))
        sim.call_at(when, self._step)


# seed -> (trace digest, packets sent per link, events scheduled).  The
# driver aims at the parked floors, so its schedule follows the park
# decision: a round parks only where its floor instant has no bucket yet.
# Re-pinned when the queue became one entry per instant, which changed
# which rounds park (an idle wait joining an existing bucket is free).
PINS = {
    1: ("7085df89fd1f9b13", (259, 257, 329), 1442),
    2: ("050d6b54706d53e3", (275, 239, 300), 1396),
    3: ("58954cb3987a482f", (266, 229, 281), 1342),
}


@pytest.mark.parametrize("queue", QUEUE_LEGS)
@pytest.mark.parametrize("seed", sorted(PINS))
def test_batching_link_trace_pinned(seed, queue):
    """600 driver steps per seed, every aim taken at least once: the
    delivery trace (instant, link, destination, payloads), the packet
    counts and ``events_scheduled`` are a pure function of the seed, on
    either leg of ``tests/queue_legs.py``."""
    with queue_leg(queue):
        sim = Simulator()
        drv = _Driver(sim, seed, steps=600)
        sim.run()
    assert drv.payload == sum(len(t[3]) for t in drv.trace if len(t) == 4)
    assert all(drv.aims.values()), drv.aims
    got = hashlib.sha256(repr(drv.trace).encode()).hexdigest()[:16]
    assert (got, tuple(ln.packets_sent for ln in drv.links),
            sim.events_scheduled) == PINS[seed]


class _WireDriver(_Driver):
    """The same schedule aimed at the instant each busy link's idle wait
    would end, read off the wire (``link._busy_until``) with the round's
    own float expression, whether or not the round parked there.  What
    it aims at does not depend on the park decision, so its trace pins
    that a park and the idle wait it stands for deliver the same."""

    def _targets(self, now):
        return [(ln, now + (ln.link._busy_until - now)) for ln in self.links
                if ln.link._busy_until > now]


# seeds 1-40 of _WireDriver: (digest of every seed's trace and packet
# counts, packets per link over all seeds, events scheduled over all
# seeds).  The digest and packets were taken before the queue became one
# entry per instant and held through it; the events went 60,043 -> 56,938.
WIRE_SEEDS = range(1, 41)
WIRE_PIN = ("27a692832e3a010e", (10628, 10567, 12324), 56938)


@pytest.mark.parametrize("queue", QUEUE_LEGS)
def test_batching_link_wire_aimed_trace_pinned(queue):
    """600 steps per seed over 40 seeds, aimed at the wire's idle
    instants: the traces and packet counts, on either queue leg."""
    runs, packets, events = [], [0, 0, 0], 0
    with queue_leg(queue):
        for seed in WIRE_SEEDS:
            sim = Simulator()
            drv = _WireDriver(sim, seed, steps=600)
            sim.run()
            assert all(drv.aims.values()), (seed, drv.aims)
            sent = tuple(ln.packets_sent for ln in drv.links)
            runs.append((drv.trace, sent))
            packets = [a + b for a, b in zip(packets, sent)]
            events += sim.events_scheduled
    got = hashlib.sha256(repr(runs).encode()).hexdigest()[:16]
    assert (got, tuple(packets), events) == WIRE_PIN
