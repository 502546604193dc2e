"""The SmartNIC operations framework (§4.3).

Provides the two execution disciplines the paper contrasts:

* **asynchronous, vectored DMA** (§4.3.1) — operations accumulate in
  per-direction pending vectors; a vector is submitted when full (15 ops)
  or at the end of the polling burst, amortizing the submission cost and
  overlapping completion latency with other work;
* **blocking single DMA** (the Figure 9a baseline) — each DMA is
  submitted alone and a NIC core spins until completion.

It also owns request/response plumbing: outbound requests register a
pending future; responses (and redirected multi-hop acks) resolve it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..hw.dma import DmaOp
from ..hw.nic import SmartNic
from ..hw.params import (BURST_INTERVAL_US, LIQUIDIO3,
                         NIC_RPC_HANDLE_US_AGGREGATED)
from ..sim.core import Event, Simulator
from .config import XenicConfig

__all__ = ["NicRuntime", "PendingTable"]


class PendingTable:
    """Futures for outstanding requests, keyed by caller-chosen ids."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._futures: Dict[Any, Event] = {}
        self._counters: Dict[Any, List[int]] = {}

    def expect(self, key: Any) -> Event:
        if key in self._futures:
            raise RuntimeError("duplicate pending key %r" % (key,))
        ev = self.sim.event(name="pending")
        self._futures[key] = ev
        return ev

    def resolve(self, key: Any, value: Any = None) -> bool:
        ev = self._futures.pop(key, None)
        if ev is None:
            return False
        ev.succeed(value)
        return True

    def expect_count(self, key: Any, n: Optional[int] = None) -> Event:
        """A future that fires after ``n`` resolve_one() calls; its value is
        the list of delivered values.  ``n`` None leaves the count open:
        deliveries accumulate until :meth:`set_count` fixes it."""
        if n is not None and n <= 0:
            ev = self.sim.event(name="pending-zero")
            ev.succeed([])
            return ev
        ev = self.sim.event(name="pending-count")
        self._futures[key] = ev
        # [deliveries still awaited (negative while the count is open),
        #  values delivered]
        self._counters[key] = [n or 0, []]
        return ev

    def set_count(self, key: Any, n: int) -> None:
        """Fix the count of a future expected open: it fires once ``n``
        deliveries have arrived, those already made included."""
        state = self._counters[key]
        state[0] += n
        self._fire_if_complete(key, state)

    def resolve_one(self, key: Any, value: Any = None) -> bool:
        state = self._counters.get(key)
        if state is None:
            return False
        state[0] -= 1
        state[1].append(value)
        self._fire_if_complete(key, state)
        return True

    def _fire_if_complete(self, key: Any, state) -> None:
        if state[0] == 0:
            del self._counters[key]
            self._futures.pop(key).succeed(state[1])

    def cancel(self, key: Any) -> bool:
        """Drop a pending future without firing it (abort cleanup)."""
        self._counters.pop(key, None)
        return self._futures.pop(key, None) is not None

    def __len__(self) -> int:
        return len(self._futures)


class NicRuntime:
    """Per-node SmartNIC execution framework."""

    def __init__(self, sim: Simulator, nic: SmartNic, config: XenicConfig):
        self.sim = sim
        self.nic = nic
        self.config = config
        self.pending = PendingTable(sim)
        self._read_vec: List[DmaOp] = []
        self._write_vec: List[DmaOp] = []
        self._log_bytes = 0
        self._log_waiters: List[Event] = []
        self._flusher_running = False
        self.dma_reads = 0
        self.dma_writes = 0
        self.log_appends = 0
        self.log_flushes = 0
        # Optional fault injector (repro.sim.faults): transient NIC-core
        # scheduling stalls inflate compute slices.
        self.injector = None
        # per-message handling cost on a NIC core (wall-µs)
        self.msg_handle_us = (
            NIC_RPC_HANDLE_US_AGGREGATED
            if config.ethernet_aggregation
            else LIQUIDIO3.rpc_handle_us
        )
        # The burst flusher self-rearms through one queue entry per
        # boundary (no Process per burst).
        self._burst_cb_bound = self._burst_cb

    # -- compute ------------------------------------------------------------

    def _stall_us(self) -> float:
        """The stall a fault plan adds to one NIC-core charge, drawn when
        the charge is taken (0 with no plan)."""
        if self.injector is None:
            return 0.0
        return self.injector.nic_stall_us(self)

    # -- DMA ------------------------------------------------------------

    def dma(self, nbytes: int, is_read: bool) -> Event:
        """Issue a host-memory DMA; returns the per-op completion event."""
        if is_read:
            self.dma_reads += 1
        else:
            self.dma_writes += 1
        op = DmaOp(size=nbytes, is_read=is_read, done=self.sim.event())
        if not self.config.async_dma:
            # blocking mode: single-op submission, and a NIC core spins on
            # the completion status byte for the whole DMA duration
            self.nic.dma.submit([op])
            _Spin(self.nic.cores, op.done)
            return op.done
        vec = self._read_vec if is_read else self._write_vec
        vec.append(op)
        if len(vec) >= self.nic.dma.params.max_vector:
            self._flush(vec)
        elif not self._flusher_running:
            self._arm_flusher()
        return op.done

    def dma_read(self, nbytes: int) -> Event:
        return self.dma(nbytes, is_read=True)

    def dma_write(self, nbytes: int) -> Event:
        return self.dma(nbytes, is_read=False)

    def dma_log_append(self, nbytes: int) -> Event:
        """Append bytes to the host-memory log region.

        Log records target a contiguous hugepage ring, so all appends
        pending at the end of a burst coalesce into a *single* DMA write
        (one op, summed bytes) — this write-combining is what keeps the
        log path off the DMA engine's op-rate ceiling (§4.3.2).  With
        async DMA disabled each record pays a full blocking DMA write.
        """
        self.log_appends += 1
        if not self.config.async_dma:
            return self.dma(nbytes, is_read=False)
        done = self.sim.event(name="log-append")
        self._log_bytes += nbytes
        self._log_waiters.append(done)
        if self._log_bytes >= 8192:
            self._flush_log()
        elif not self._flusher_running:
            self._arm_flusher()
        return done

    def _arm_flusher(self) -> None:
        self._flusher_running = True
        self.sim.call_after(BURST_INTERVAL_US, self._burst_cb_bound)

    def _flush_log(self) -> None:
        if not self._log_waiters:
            return
        waiters = self._log_waiters
        nbytes = self._log_bytes
        self._log_waiters = []
        self._log_bytes = 0
        self.log_flushes += 1
        op = DmaOp(size=nbytes, is_read=False, done=self.sim.event())
        op.done.add_callback(
            lambda _e: [w.succeed() for w in waiters]
        )
        self.nic.cores.charge_wall(self.nic.dma.submission_cost_us)
        self.nic.dma.submit([op])
        self.dma_writes += 1

    def _flush(self, vec: List[DmaOp]) -> None:
        ops = vec[:]
        vec.clear()
        if not ops:
            return
        # submission cost: one core charge per vector (amortized, §3.5)
        self.nic.cores.charge_wall(self.nic.dma.submission_cost_us)
        self.nic.dma.submit(ops)

    def _burst_cb(self, _arg: None) -> None:
        """Submits partially filled vectors and coalesced log appends at
        burst-loop boundaries: one queue entry per boundary."""
        self._flush(self._read_vec)
        self._flush(self._write_vec)
        self._flush_log()
        if self._read_vec or self._write_vec or self._log_waiters:
            self.sim.call_after(BURST_INTERVAL_US, self._burst_cb_bound)
        else:
            self._flusher_running = False


class _Spin:
    """A NIC core busy-waiting on one blocking DMA (non-async mode), from
    the grant of a core to the DMA's completion.  A callback chain: the
    start entry a spawned spin pushed, the FIFO core grant, the
    completion event."""

    __slots__ = ("cores", "done", "start")

    def __init__(self, cores, done: Event):
        self.cores = cores
        self.done = done
        sim = cores.sim
        sim.call_at(sim._now, self._arrive)

    def _arrive(self, _ev: Event) -> None:
        self.start = self.cores.sim._now
        self.cores.pool.acquire().add_callback(self._spin)

    def _spin(self, _ev: Event) -> None:
        # done -> this stage -> self until done fires: no cycle outlives it
        self.done.add_callback(self._release)

    def _release(self, _ev: Event) -> None:
        # the core was occupied from acquisition to completion
        cores = self.cores
        cores.busy_us += cores.sim._now - self.start
        cores.pool.release()
