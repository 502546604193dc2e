"""The SmartNIC operations framework (§4.3).

Provides the two execution disciplines the paper contrasts:

* **asynchronous, vectored DMA** (§4.3.1) — operations accumulate in
  per-direction pending vectors; a vector is submitted when full (15 ops)
  or at the end of the polling burst, amortizing the submission cost and
  overlapping completion latency with other work;
* **blocking single DMA** (the Figure 9a baseline) — each DMA is
  submitted alone and a NIC core spins until completion.

It also owns request/response plumbing: an outbound request registers
its continuation in the pending table; the response (or the redirected
multi-hop acks) runs it.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional

from ..hw.dma import DmaOp
from ..hw.nic import SmartNic
from ..hw.params import (BURST_INTERVAL_US, LIQUIDIO3,
                         NIC_RPC_HANDLE_US_AGGREGATED)
from ..sim.core import Simulator
from .config import XenicConfig

__all__ = ["NicRuntime", "PendingTable"]


class PendingTable:
    """The continuations of outstanding requests, keyed by caller-chosen
    ids: ``resolve`` runs the one waiting on a key with the value it
    delivers."""

    def __init__(self):
        self._waiting: Dict[Any, Callable[[Any], None]] = {}
        self._counters: Dict[Any, List[Any]] = {}

    def expect(self, key: Any, then: Callable[[Any], None]) -> None:
        """Run ``then(value)`` when ``key`` is resolved."""
        if key in self._waiting:
            raise RuntimeError("duplicate pending key %r" % (key,))
        self._waiting[key] = then

    def resolve(self, key: Any, value: Any = None) -> bool:
        then = self._waiting.pop(key, None)
        if then is None:
            return False
        then(value)
        return True

    def expect_count(self, key: Any, then: Callable[[Any], None],
                     n: Optional[int] = None) -> None:
        """Run ``then(values)`` after ``n`` resolve_one() calls, with the
        list of delivered values.  ``n`` None leaves the count open:
        deliveries accumulate until :meth:`set_count` fixes it."""
        if n is not None and n <= 0:
            then([])
            return
        self._waiting[key] = then
        # [deliveries still awaited (negative while the count is open),
        #  values delivered]
        self._counters[key] = [n or 0, []]

    def set_count(self, key: Any, n: int) -> None:
        """Fix the count of a key expected open: its continuation runs
        once ``n`` deliveries have arrived, those already made
        included — here, if they all have."""
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
            self._waiting.pop(key)(state[1])

    def cancel(self, key: Any) -> bool:
        """Drop a pending continuation without running it (abort
        cleanup)."""
        self._counters.pop(key, None)
        return self._waiting.pop(key, None) is not None

    def __len__(self) -> int:
        return len(self._waiting)


class NicRuntime:
    """Per-node SmartNIC execution framework."""

    def __init__(self, sim: Simulator, nic: SmartNic, config: XenicConfig):
        self.sim = sim
        self.nic = nic
        self.config = config
        self.pending = PendingTable()
        self._read_vec: List[DmaOp] = []
        self._write_vec: List[DmaOp] = []
        self._log_bytes = 0
        # continuations of the log appends the next flush carries
        self._log_waiters: List[Callable[[Any], None]] = []
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

    def dma(self, nbytes: int, is_read: bool,
            then: Callable[[Any], None]) -> None:
        """Issue a host-memory DMA; ``then(None)`` at its completion."""
        if is_read:
            self.dma_reads += 1
        else:
            self.dma_writes += 1
        if not self.config.async_dma:
            # blocking mode: single-op submission, and a NIC core spins on
            # the completion status byte for the whole DMA duration
            op = DmaOp(size=nbytes, is_read=is_read)
            self.nic.dma.submit([op])
            op.then = _Spin(self.nic.cores, then)._landed
            return
        vec = self._read_vec if is_read else self._write_vec
        vec.append(DmaOp(size=nbytes, is_read=is_read, then=then))
        if len(vec) >= self.nic.dma.params.max_vector:
            self._flush(vec)
        elif not self._flusher_running:
            self._arm_flusher()

    def dma_read(self, nbytes: int, then: Callable[[Any], None]) -> None:
        self.dma(nbytes, True, then)

    def dma_write(self, nbytes: int, then: Callable[[Any], None]) -> None:
        self.dma(nbytes, False, then)

    def dma_log_append(self, nbytes: int,
                       then: Callable[[Any], None]) -> None:
        """Append bytes to the host-memory log region; ``then(None)`` once
        they land.

        Log records target a contiguous hugepage ring, so all appends
        pending at the end of a burst coalesce into a *single* DMA write
        (one op, summed bytes) — this write-combining is what keeps the
        log path off the DMA engine's op-rate ceiling (§4.3.2).  With
        async DMA disabled each record pays a full blocking DMA write.
        """
        self.log_appends += 1
        if not self.config.async_dma:
            self.dma(nbytes, False, then)
            return
        self._log_bytes += nbytes
        self._log_waiters.append(then)
        if self._log_bytes >= 8192:
            self._flush_log()
        elif not self._flusher_running:
            self._arm_flusher()

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
        self.nic.cores.charge_wall(self.nic.dma.submission_cost_us)
        self.nic.dma.submit([DmaOp(size=nbytes, is_read=False,
                                   then=partial(_run_all, waiters))])
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


def _run_all(waiters: List[Callable[[Any], None]], _arg: None) -> None:
    """A coalesced log write landed: every append it carried, in order."""
    for then in waiters:
        then(None)


class _Spin:
    """A NIC core busy-waiting on one blocking DMA (non-async mode), from
    the grant of a core to the DMA's completion.  A callback chain: the
    start entry a spawned spin pushed, the FIFO core grant, the DMA's
    completion (:meth:`_landed`), which runs the waiter's ``then`` and
    then frees the core — or, when the DMA lands before a core is
    granted, the grant frees it at once."""

    __slots__ = ("cores", "then", "start", "state")

    def __init__(self, cores, then: Callable[[Any], None]):
        self.cores = cores
        self.then = then
        self.state = None  # "spinning" once granted, "landed" once done
        sim = cores.sim
        sim.call_at(sim._now, self._arrive)

    def _arrive(self, _arg: None) -> None:
        self.start = self.cores.sim._now
        self.cores.pool.acquire(self._spin)

    def _spin(self, _arg: None) -> None:
        if self.state == "landed":
            self._release()
        else:
            self.state = "spinning"

    def _landed(self, _arg: None) -> None:
        then, self.then = self.then, None
        then(None)
        if self.state == "spinning":
            self._release()
        else:
            self.state = "landed"

    def _release(self) -> None:
        # the core was occupied from acquisition to completion
        cores = self.cores
        cores.busy_us += cores.sim._now - self.start
        cores.pool.release()
