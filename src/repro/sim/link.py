"""Generic serial-link primitives shared by the PCIe and Ethernet models.

A :class:`SerialLink` transfers byte payloads one at a time at a fixed
bandwidth with optional per-transfer overhead; a :class:`BatchingLink`
additionally merges queued payloads bound for the same destination into a
single transfer, amortizing the per-transfer overhead — the mechanism
behind Xenic's gather-list aggregation (§4.3.2) and the Figure 3 batching
microbenchmark.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

from .core import Event, Simulator, Timeout
from .stats import OnlineStats

__all__ = ["SerialLink", "BatchingLink"]


class SerialLink:
    """A FIFO link: transfers serialize at ``bandwidth_gbps`` plus a fixed
    per-transfer ``overhead_us`` (framing / doorbell / header processing).
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_gbps: float,
        overhead_us: float = 0.0,
        propagation_us: float = 0.0,
        name: str = "",
    ):
        if bandwidth_gbps <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.bandwidth_gbps = bandwidth_gbps
        self.overhead_us = overhead_us
        self.propagation_us = propagation_us
        self.name = name
        self._busy_until = 0.0
        self.bytes_transferred = 0
        self.transfers = 0
        self.stalls = 0
        # Optional fault injector (repro.sim.faults): adds transient
        # per-transfer stalls (PFC pauses, arbitration hiccups).
        self.injector = None
        self.batch_sizes = OnlineStats()

    def serialization_us(self, nbytes: int) -> float:
        # bandwidth_gbps Gbit/s == bandwidth_gbps * 125 bytes/us
        return nbytes / (self.bandwidth_gbps * 125.0)

    def transfer(self, nbytes: int) -> Event:
        """Schedule a transfer; the event fires at delivery time.

        The returned event is the delivery timeout itself — no separate
        completion event is allocated (hot path: one heap entry, zero
        callbacks until a waiter registers)."""
        now = self.sim._now
        start = now if now > self._busy_until else self._busy_until
        duration = self.overhead_us + nbytes / (self.bandwidth_gbps * 125.0)
        if self.injector is not None:
            stall = self.injector.link_stall_us(self)
            if stall > 0.0:
                self.stalls += 1
                duration += stall
        self._busy_until = start + duration
        self.bytes_transferred += nbytes
        self.transfers += 1
        return Timeout(self.sim,
                       (self._busy_until - now) + self.propagation_us)

    def transfer_then(self, nbytes: int, extra_us: float) -> Event:
        """Fused transfer + trailing pure delay: one event firing at
        delivery time plus ``extra_us``.

        Reservation (``_busy_until``), byte/stall accounting, and the
        injector draw are identical to :meth:`transfer`; only the wakeup
        at the delivery instant is elided.  Safe exactly when the caller
        does nothing at that instant but start the delay — any shared
        state touched there (a reservation on another link, a core
        grant) must stay on the stepwise two-event path."""
        now = self.sim._now
        start = now if now > self._busy_until else self._busy_until
        duration = self.overhead_us + nbytes / (self.bandwidth_gbps * 125.0)
        if self.injector is not None:
            stall = self.injector.link_stall_us(self)
            if stall > 0.0:
                self.stalls += 1
                duration += stall
        self._busy_until = start + duration
        self.bytes_transferred += nbytes
        self.transfers += 1
        return Timeout(self.sim,
                       (self._busy_until - now) + self.propagation_us
                       + extra_us)

    def utilization(self, since: float = 0.0) -> float:
        span = self.sim.now - since
        if span <= 0:
            return 0.0
        return min(1.0, self.bytes_transferred / (self.bandwidth_gbps * 125.0) / span)


class BatchingLink:
    """A link with a drain loop that merges queued sends per destination.

    Callers enqueue ``(dest, nbytes, payload)``; the drain process pulls
    everything queued, groups by destination, and issues one wire transfer
    per destination carrying the sum of bytes plus a single per-transfer
    overhead.  ``deliver(dest, payloads)`` is invoked once per *packet* at
    arrival time with the list of payloads it carried, so receivers can
    charge per-packet RX costs.

    With ``aggregation=False`` every payload pays the full overhead — this
    is the "single" configuration in Figure 3 and the ablation baseline in
    Figure 9a.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_gbps: float,
        overhead_us: float,
        propagation_us: float,
        deliver: Callable[[Any, Any], None],
        aggregation: bool = True,
        max_batch_bytes: int = 65536,
        batch_window_us: Optional[float] = None,
        name: str = "",
    ):
        self.sim = sim
        self.link = SerialLink(
            sim, bandwidth_gbps, overhead_us, propagation_us, name=name
        )
        self.deliver = deliver
        self.aggregation = aggregation
        self.max_batch_bytes = max_batch_bytes
        # When backlogged, pause this long between drains so output
        # accumulates into larger gather lists (the burst-loop effect,
        # §4.3.2).  A sporadic message is still sent immediately.
        self.batch_window_us = (
            batch_window_us if batch_window_us is not None else 3.0 * overhead_us
        )
        self.name = name
        # formatted once: a park or respawn happens several times per
        # transaction
        self._wake_name = "%s.wake" % name
        self._drain_name = "%s.drain" % name
        self._queue: Deque[Tuple[Any, int, Any]] = deque()
        self._drainer: Optional[Any] = None
        self._wake: Optional[Event] = None
        self.packets_sent = 0
        self.payloads_sent = 0
        # Delay fusion: when a drain round leaves the
        # queue empty, the fused drainer parks immediately instead of
        # sleeping out the wire-clear wait, recording in ``_floor`` the
        # instant its stepwise idle timeout would have fired.  A send
        # landing inside the window arms one exact ``call_at`` wake at
        # the floor; a send at or past the floor wakes the parked
        # drainer directly, exactly as any parked-state send always
        # did.  Ordering at the floor instant is preserved through the
        # rider invariant (repro.sim.core): same-instant entries form
        # one host plus riders firing in push order, so a wake pushed
        # when no entry exists at the floor becomes the host — firing
        # before every later-pushed same-instant event, just as the
        # stepwise timeout (pushed at round start) would.  When an
        # entry at the floor already exists at round end, the stepwise
        # timeout is pushed as-is: it rides that entry for free with
        # its exact cohort position.  A drainer that slept the wait
        # out leaves ``_floor`` at zero, so sends to it take the
        # immediate-wake branch unchanged.  A fault plan's link stall is
        # drawn inside ``transfer`` and is already in the wait's length.
        self._floor = 0.0
        self._armed = False
        self._arm_cb_bound = self._arm_cb

    def send(self, dest: Any, nbytes: int, payload: Any) -> None:
        self._queue.append((dest, nbytes, payload))
        if self._drainer is None or not self._drainer.alive:
            self._drainer = self.sim.spawn(self._drain(),
                                           name=self._drain_name)
        elif self._wake is not None and not self._wake.triggered:
            if self.sim._now >= self._floor:
                self._wake.succeed()
            elif not self._armed:
                # Send inside a fused wire-clear window: materialize one
                # wake at the floor instant.  Pushed while no entry
                # exists there, it hosts that timestamp and fires before
                # every later-pushed same-instant event — the stepwise
                # idle timeout's exact position.
                self._armed = True
                self.sim.call_at(self._floor, self._arm_cb_bound)

    def _arm_cb(self, _ev: Event) -> None:
        wake = self._wake
        self._armed = False
        if wake is None or wake.triggered or not self._queue:
            return
        if self.sim._now >= self._floor:
            wake.succeed()
        else:
            # The park this arm was meant for was already served by a
            # same-instant send and the drainer re-parked with a later
            # floor; carry the pending sends forward to it.
            self._armed = True
            self.sim.call_at(self._floor, self._arm_cb_bound)

    def _materialize(self, floor: float) -> None:
        """Called by the scheduler on the first push at a parked floor
        instant (``Simulator._floors``): claim the timestamp for the
        wake before the incoming entry lands, so the wake fires ahead of
        every event scheduled there after the park — the stepwise idle
        timeout's exact cohort position."""
        if (self._floor == floor and not self._armed
                and self._wake is not None and not self._wake.triggered):
            self._armed = True
            self.sim.call_at(floor, self._arm_cb_bound)

    def _park_floor(self, floor: float) -> None:
        """Register a fused park so pushes at ``floor`` materialize the
        wake first (see ``_materialize``)."""
        self._floor = floor
        floors = self.sim._floors
        lst = floors.get(floor)
        if lst is None:
            floors[floor] = [self]
        else:
            lst.append(self)
        if len(floors) >= 4096:
            # Shed registrations whose park has since been served.
            self.sim._floors = {
                w: ls
                for w, ls in floors.items()
                if any(ln._floor == w for ln in ls)
            }

    def _drain(self):
        queue = self._queue
        link = self.link
        while queue:
            if self.aggregation:
                if len(queue) == 1:
                    # Sporadic-message fast path: one queued payload forms
                    # a batch of one — skip the grouping dict.  Accounting
                    # and timing are identical to the general path below.
                    dest, nbytes, payload = queue.popleft()
                    ev = link.transfer(nbytes)
                    self.packets_sent += 1
                    self.payloads_sent += 1
                    link.batch_sizes.add(1)
                    ev.add_callback(
                        lambda _e, d=dest, p=payload: self.deliver(d, [p])
                    )
                    idle = link._busy_until - self.sim.now
                    if idle > 0:
                        if not queue:
                            floor = self.sim._now + idle
                            host = self.sim._open.get(floor)
                            if host is None or host._ok is not None:
                                # Fused park: skip the idle timeout and
                                # record where it would have fired; a
                                # send inside the window arms an exact
                                # wake there (see ``send``).
                                self._park_floor(floor)
                                self._wake = self.sim.event(
                                    name=self._wake_name)
                                yield self._wake
                                self._wake = None
                                self._floor = 0.0
                                continue
                            # A pending entry at the floor instant
                            # already exists: the stepwise timeout
                            # below rides it for free, in its exact
                            # same-instant cohort position.
                        yield self.sim.timeout(idle)
                    if not queue:
                        self._wake = self.sim.event(name=self._wake_name)
                        yield self._wake
                        self._wake = None
                    continue
                # Group everything currently queued by destination, capped
                # at max_batch_bytes per wire transfer.
                by_dest = {}
                while self._queue:
                    dest, nbytes, payload = self._queue.popleft()
                    bucket = by_dest.setdefault(dest, [0, []])
                    if bucket[0] + nbytes > self.max_batch_bytes and bucket[1]:
                        self._queue.appendleft((dest, nbytes, payload))
                        break
                    bucket[0] += nbytes
                    bucket[1].append(payload)
                for dest, (total, payloads) in by_dest.items():
                    ev = self.link.transfer(total)
                    self.packets_sent += 1
                    self.payloads_sent += len(payloads)
                    self.link.batch_sizes.add(len(payloads))
                    ev.add_callback(
                        lambda _e, d=dest, ps=payloads: self.deliver(d, ps)
                    )
                # Wait for the wire to clear before collecting the next
                # batch; when backlogged, also wait out the batch window so
                # queue depth (and thus batch size) grows with load.
                idle = self.link._busy_until - self.sim.now
                if self._queue:
                    idle = max(idle, self.batch_window_us)
                if idle > 0:
                    if not self._queue:
                        floor = self.sim._now + idle
                        host = self.sim._open.get(floor)
                        if host is None or host._ok is not None:
                            # Fused park (see the sporadic path above).
                            self._park_floor(floor)
                            self._wake = self.sim.event(
                                name=self._wake_name)
                            yield self._wake
                            self._wake = None
                            self._floor = 0.0
                            continue
                    yield self.sim.timeout(idle)
            else:
                dest, nbytes, payload = self._queue.popleft()
                ev = self.link.transfer(nbytes)
                self.packets_sent += 1
                self.payloads_sent += 1
                self.link.batch_sizes.add(1)
                ev.add_callback(
                    lambda _e, d=dest, p=payload: self.deliver(d, [p])
                )
            if not self._queue:
                # Park until the next send arrives, then loop.
                self._wake = self.sim.event(name=self._wake_name)
                yield self._wake
                self._wake = None

    @property
    def mean_batch(self) -> float:
        return self.link.batch_sizes.mean
