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

from .core import Simulator

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

    def serialization_us(self, nbytes: int) -> float:
        # bandwidth_gbps Gbit/s == bandwidth_gbps * 125 bytes/us
        return nbytes / (self.bandwidth_gbps * 125.0)

    def transfer(self, nbytes: int, fn: Callable[[Any], None],
                 arg: Any = None) -> None:
        """Schedule a transfer; ``fn(arg)`` runs at delivery time.

        The delivery is one queue entry and nothing else: no event, no
        callback list.  ``arg`` lets one bound stage serve every
        transfer: the packet rides the entry instead of a closure."""
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
        self.sim.call_after((self._busy_until - now) + self.propagation_us,
                            fn, arg)

    def transfer_then(self, nbytes: int, extra_us: float,
                      fn: Callable[[Any], None], arg: Any = None) -> None:
        """Fused transfer + trailing pure delay: ``fn(arg)`` runs at
        delivery time plus ``extra_us``.

        Reservation (``_busy_until``), byte/stall accounting, and the
        injector draw are identical to :meth:`transfer`; only the wakeup
        at the delivery instant is elided.  Safe exactly when the caller
        does nothing at that instant but start the delay — any shared
        state touched there (a reservation on another link, a core
        grant) must stay on the stepwise two-entry path."""
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
        self.sim.call_after((self._busy_until - now) + self.propagation_us
                            + extra_us, fn, arg)

    def utilization(self, since: float = 0.0) -> float:
        span = self.sim.now - since
        if span <= 0:
            return 0.0
        return min(1.0, self.bytes_transferred / (self.bandwidth_gbps * 125.0) / span)


class BatchingLink:
    """A link with a drain loop that merges queued sends per destination.

    Callers enqueue ``(dest, nbytes, payload)``; each drain round pulls
    everything queued, groups by destination, and issues one wire transfer
    per destination carrying the sum of bytes plus a single per-transfer
    overhead.  ``deliver(dest, payloads)`` is invoked once per *packet* at
    arrival time with the list of payloads it carried, so receivers can
    charge per-packet RX costs.

    With ``aggregation=False`` every payload pays the full overhead — this
    is the "single" configuration in Figure 3 and the ablation baseline in
    Figure 9a.

    The drain loop is a callback chain, not a process: a round
    (:meth:`_round`) runs from the entry the first send pushes at now,
    from its idle wait's entry, or directly from the send that finds it
    parked — exactly where a drain process would resume, so every push
    keeps the instant and the same-instant position a process would
    give it.
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
        self._queue: Deque[Tuple[Any, int, Any]] = deque()
        # The chain's state: not started until the first send; then each
        # round ends either waiting on an idle entry or parked until a
        # send runs the next round directly.
        self._started = False
        self._parked = False
        self.packets_sent = 0
        self.payloads_sent = 0
        # Bound once: the stages below run several times per transaction.
        self._round_cb = self._round
        self._arrive_cb = self._arrive

    def send(self, dest: Any, nbytes: int, payload: Any) -> None:
        self._queue.append((dest, nbytes, payload))
        if not self._started:
            # The first round runs from an entry at now, where a spawned
            # drain process's start event would sit.
            self._started = True
            self.sim.call_at(self.sim._now, self._round)
        elif self._parked:
            self._round()

    def _arrive(self, packet: Tuple[Any, Any]) -> None:
        dest, payloads = packet
        self.deliver(dest, payloads)

    def _round(self, _arg: None = None) -> None:
        """Drain rounds until one ends on an idle wait or a park.

        Runs from the first send's entry, from a send that finds the link
        parked, and as the idle wait's entry — the one entry that can
        find the queue empty, and then parks."""
        queue = self._queue
        if not queue:
            self._parked = True
            return
        self._parked = False
        sim = self.sim
        link = self.link
        arrive = self._arrive_cb
        while True:
            if not self.aggregation:
                dest, nbytes, payload = queue.popleft()
                link.transfer(nbytes, arrive, (dest, [payload]))
                self.packets_sent += 1
                self.payloads_sent += 1
                if not queue:
                    self._parked = True
                    return
                continue
            if len(queue) == 1:
                # Sporadic-message fast path: one queued payload forms a
                # batch of one — skip the grouping dict.  Accounting and
                # timing are identical to the general path below.
                dest, nbytes, payload = queue.popleft()
                link.transfer(nbytes, arrive, (dest, [payload]))
                self.packets_sent += 1
                self.payloads_sent += 1
                idle = link._busy_until - sim._now
            else:
                # Group everything currently queued by destination,
                # capped at max_batch_bytes per wire transfer.
                by_dest = {}
                while queue:
                    dest, nbytes, payload = queue.popleft()
                    bucket = by_dest.setdefault(dest, [0, []])
                    if bucket[0] + nbytes > self.max_batch_bytes and bucket[1]:
                        queue.appendleft((dest, nbytes, payload))
                        break
                    bucket[0] += nbytes
                    bucket[1].append(payload)
                for dest, (total, payloads) in by_dest.items():
                    link.transfer(total, arrive, (dest, payloads))
                    self.packets_sent += 1
                    self.payloads_sent += len(payloads)
                # Wait for the wire to clear before collecting the next
                # batch; when backlogged, also wait out the batch window
                # so queue depth (and thus batch size) grows with load.
                idle = link._busy_until - sim._now
                if queue:
                    idle = max(idle, self.batch_window_us)
            if idle > 0:
                sim.call_after(idle, self._round_cb)
                return
            if not queue:
                self._parked = True
                return

    @property
    def mean_batch(self) -> float:
        sent = self.packets_sent
        return self.payloads_sent / sent if sent else 0.0
