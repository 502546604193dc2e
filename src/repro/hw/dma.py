"""LiquidIO PCIe DMA engine model (§3.5, Figure 4).

The engine exposes 8 hardware queues accepting vectored submissions of up
to 15 reads or writes.  Two ceilings are modeled:

* an op-rate ceiling — per-submission descriptor overhead plus per-op
  processing time, calibrated so full 15-element vectors across 8 queues
  reach the measured 8.7 Mops/s maximum while single-op submissions fall
  well short of it (the Figure 4a gap that motivates Xenic's batching);
* a byte ceiling — all payload bytes serialize through the shared PCIe
  link, which bounds large transfers.

Completions are asymmetric (reads ~1295 ns, writes ~570 ns, §3.5) and are
added *after* queue service, so callers that block per-DMA waste core time
while callers using the continuation-passing runtime (§4.3.1) overlap it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from ..sim.core import Simulator
from ..sim.link import SerialLink
from ..sim.stats import OnlineStats
from .params import DMA_ENGINE_PER_OP_US, DMA_ENGINE_SUBMIT_US, DmaParams

__all__ = ["DmaOp", "DmaEngine"]


@dataclass
class DmaOp:
    """One host-memory read or write in a DMA vector; ``then(None)``, if
    given, runs at its completion."""

    size: int
    is_read: bool
    then: Optional[Callable[[Any], None]] = None
    submitted_at: float = field(default=0.0)
    completed_at: float = field(default=0.0)


class DmaEngine:
    """The NIC's DMA engine: vectored, multi-queue, latency-accurate."""

    def __init__(self, sim: Simulator, params: DmaParams = None, name: str = "dma"):
        self.sim = sim
        self.params = params or DmaParams()
        self.name = name
        self._queue_busy_until = [0.0] * self.params.queues
        self._rr = 0
        self.pcie = SerialLink(
            sim,
            self.params.pcie_bandwidth_gbps,
            overhead_us=0.0,
            name="%s.pcie" % name,
        )
        self.ops_submitted = 0
        self.vectors_submitted = 0
        self.vector_sizes = OnlineStats()
        self.read_latency = OnlineStats()
        self.write_latency = OnlineStats()
        # Observability hook (repro.obs): emits one span per vector on the
        # queue it landed in.  None keeps submit() to a single branch.
        self.obs_sink = None
        self._obs_node = 0

    def attach_obs(self, sink, node: int) -> None:
        self.obs_sink = sink
        self._obs_node = node

    def detach_obs(self) -> None:
        self.obs_sink = None

    def busy_queues(self) -> int:
        """Queues with descriptor work still outstanding (gauge source)."""
        now = self.sim.now
        return sum(1 for t in self._queue_busy_until if t > now)

    def queue_backlog_us(self) -> float:
        """Total descriptor-processing backlog across queues, in µs."""
        now = self.sim.now
        return sum(t - now for t in self._queue_busy_until if t > now)

    @property
    def submission_cost_us(self) -> float:
        """Core time spent issuing one (possibly vectored) submission —
        charged to the submitting NIC core by the caller (§3.5: up to
        190 ns, amortized across up to 15 memory operations)."""
        return self.params.submission_us

    def submit(self, ops: List[DmaOp]) -> None:
        """Submit a vector of up to ``max_vector`` ops to the least-loaded
        queue.  Each op's ``then`` runs at its own completion time; a
        caller that waits for the whole vector joins its ops through one
        :class:`~repro.sim.core.Gather`."""
        if not ops:
            raise ValueError("empty DMA vector")
        if len(ops) > self.params.max_vector:
            raise ValueError(
                "vector of %d exceeds hardware maximum %d"
                % (len(ops), self.params.max_vector)
            )
        now = self.sim.now
        self.vectors_submitted += 1
        self.ops_submitted += len(ops)
        self.vector_sizes.add(len(ops))

        # Pick the earliest-free queue (ties broken round-robin).
        busy = self._queue_busy_until
        nq = len(busy)
        rr = self._rr
        q = 0
        best = (busy[0], (0 - rr) % nq)
        for i in range(1, nq):
            cand = (busy[i], (i - rr) % nq)
            if cand < best:
                best = cand
                q = i
        self._rr = (q + 1) % nq

        start = max(now, busy[q])
        complete = self._complete

        # The queue is *occupied* for the descriptor-processing time
        # (throughput model), but the engine is pipelined: an op's latency
        # is its wait for the queue plus the fixed submission/completion
        # pipeline, not the full occupancy (§3.5, Figure 4b: vectors do
        # not increase per-op latency).
        occupancy = DMA_ENGINE_SUBMIT_US + len(ops) * DMA_ENGINE_PER_OP_US
        self._queue_busy_until[q] = start + occupancy
        if self.obs_sink is not None:
            self.obs_sink.dma_vector(self._obs_node, q, start, occupancy,
                                     len(ops))
        for op in ops:
            op.submitted_at = now
            link_done_delay = self._pcie_busy_delay(op.size)
            pipeline_delay = (start - now) + self.params.submission_us
            finish_delay = max(pipeline_delay, link_done_delay)
            completion = (
                self.params.read_completion_us
                if op.is_read
                else self.params.write_completion_us
            )
            total_delay = finish_delay + completion
            self.sim.call_after(total_delay, complete, op)

    def _pcie_busy_delay(self, nbytes: int) -> float:
        """Reserve link time for the payload; returns delay until the bytes
        have crossed the link (relative to now)."""
        now = self.sim.now
        start = max(now, self.pcie._busy_until)
        dur = self.pcie.serialization_us(nbytes)
        self.pcie._busy_until = start + dur
        self.pcie.bytes_transferred += nbytes
        self.pcie.transfers += 1
        return (start + dur) - now

    def _complete(self, op: DmaOp) -> None:
        op.completed_at = self.sim.now
        latency = op.completed_at - op.submitted_at
        (self.read_latency if op.is_read else self.write_latency).add(latency)
        if op.then is not None:
            op.then(None)

    # Convenience single-op helpers ---------------------------------------

    def read(self, nbytes: int, then: Callable[[Any], None]) -> None:
        """One read alone in its vector; ``then(None)`` at completion."""
        self.submit([DmaOp(size=nbytes, is_read=True, then=then)])

    def write(self, nbytes: int, then: Callable[[Any], None]) -> None:
        """One write alone in its vector; ``then(None)`` at completion."""
        self.submit([DmaOp(size=nbytes, is_read=False, then=then)])
