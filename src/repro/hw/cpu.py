"""Core-group model: n identical cores executing work items with queueing.

Compute costs throughout the reproduction are expressed in *reference
microseconds* — the time the work takes on one host Xeon thread with all
cores active.  A :class:`CoreGroup` built from NIC ARM parameters stretches
those costs by the Coremark-derived speed ratio (Table 1), which is how the
"wimpy cores" effect enters every experiment.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Optional

from ..sim.core import Simulator
from ..sim.resources import Resource
from .params import CpuParams, XEON_GOLD_5218

__all__ = ["CoreGroup"]


class CoreGroup:
    """A pool of cores with FIFO dispatch.

    ``execute(ref_us, then)`` runs a job costing ``ref_us``
    reference-Xeon microseconds and calls ``then(None)`` when it
    completes (queueing + scaled service time); ``run_then`` is the same
    job with no start entry, for a caller already inside a callback
    chain.  No form builds an event.
    """

    def __init__(
        self,
        sim: Simulator,
        params: CpuParams,
        cores: Optional[int] = None,
        reference: CpuParams = XEON_GOLD_5218,
        name: str = "",
    ):
        self.sim = sim
        self.params = params
        self.cores = cores if cores is not None else params.cores
        if self.cores < 1:
            raise ValueError("need at least one core")
        self.name = name or params.name
        self.pool = Resource(sim, self.cores, name=self.name)
        # scale factor: >1 means these cores are slower than the reference
        self.slowdown = reference.coremark_per_thread / params.coremark_per_thread
        self.jobs_executed = 0
        self.busy_us = 0.0
        # the free-core job's end, bound once: one per job otherwise
        self._done_cb = self._done
        # Observability hook (repro.obs): when attached, each job emits a
        # per-core span on a logical lane.  A lane a hold or a lazy charge
        # occupies has no completion event to free it, so it waits in
        # ``_obs_held`` (a heap of ``(end, lane)``) until the next job
        # that needs a lane finds it expired.
        self.obs_sink = None
        self._obs_node = 0
        self._obs_track = self.name
        self._obs_free: list = []
        self._obs_held: list = []

    def attach_obs(self, sink, node: int, track: str) -> None:
        """Attach an observability sink; jobs are attributed to logical
        core slots ``track.c<i>`` (lowest free slot first)."""
        self.obs_sink = sink
        self._obs_node = node
        self._obs_track = track
        self._obs_free = list(range(self.cores))
        self._obs_held = []

    def detach_obs(self) -> None:
        self.obs_sink = None

    def _take_lane(self) -> Optional[int]:
        free, held = self._obs_free, self._obs_held
        now = self.sim._now
        while held and held[0][0] <= now:
            heappush(free, heappop(held)[1])
        return heappop(free) if free else None

    def service_us(self, ref_us: float) -> float:
        """Wall time on one of these cores for a reference-cost job."""
        return ref_us * self.slowdown

    def execute(self, ref_us: float, then: Callable[[Any], None]) -> None:
        """Queue a job costing ``ref_us`` reference-Xeon µs; ``then(None)``
        runs once it completes (queueing + scaled service time).

        The job arrives at an entry at now, then runs as
        :meth:`run_then`."""
        sim = self.sim
        sim.call_at(sim._now, self._arrive, (ref_us, then))

    def execute_wall(self, wall_us: float,
                     then: Callable[[Any], None]) -> None:
        """:meth:`execute` for a cost given in *these cores'* wall time
        (e.g. NIC handler costs measured on the NIC itself, §3.3)."""
        self.execute(wall_us / self.slowdown, then)

    def _arrive(self, job) -> None:
        """An :meth:`execute` job's start entry: ``(ref_us, then)``."""
        self.run_then(*job)

    def run_then(self, ref_us: float, then: Callable[[Any], None]) -> None:
        """Run a job inside a callback chain: it arrives now, with no
        start entry, and ``then(None)`` runs once it completes — at once
        when a free core finishes a zero-cost job.

        On a free core with no sink attached the job books its service
        and waits it out on one ``call_after`` entry whose continuation
        releases the core and runs ``then`` (:meth:`_done`); a job that
        queues for a core, or that logs a span, is a :class:`_Job`."""
        service = ref_us * self.slowdown
        pool = self.pool
        if pool.try_acquire():
            if self.obs_sink is None:
                self._book(service)
                if service > 0:
                    self.sim.call_after(service, self._done_cb, then)
                else:
                    self._done(then)
                return
            _Job(self, service, then)._run(None)
        else:
            pool.acquire(_Job(self, service, then)._run)

    def run_wall_then(self, wall_us: float,
                      then: Callable[[Any], None]) -> None:
        """:meth:`run_then` for a cost in these cores' wall time."""
        self.run_then(wall_us / self.slowdown, then)

    def _done(self, then: Callable[[Any], None]) -> None:
        """A job on a free core ends: release the core, then ``then``."""
        self.pool.release()
        then(None)

    def charge_wall(self, wall_us: float) -> None:
        """Fire-and-forget :meth:`execute_wall`: occupy a core for
        ``wall_us`` with no completion event handed back.

        Queueing semantics match ``execute_wall`` exactly — when all cores
        are busy the charge waits its FIFO turn — but the free-core case
        runs without a completion entry: the pool tracks the slot as a
        virtual occupancy expiring at the instant a release entry would
        have run (``Resource.charge_until``), so the uncontended charge
        costs zero events."""
        pool = self.pool
        if not pool.try_acquire():
            self.execute_wall(wall_us, _ignore)
            return
        end = self.hold((wall_us,))
        if end > self.sim._now:
            pool.charge_until(end)
        else:
            pool.release()

    def try_hold(self, walls) -> Optional[float]:
        """:meth:`hold` on a free core, or None, charging nothing, when
        no core is free."""
        if not self.pool.try_acquire():
            return None
        return self.hold(walls)

    def hold(self, walls) -> float:
        """Occupy the core the caller just acquired for several
        back-to-back jobs (``walls``: each one's cost in these cores' wall
        time) as a single hold.  Returns the absolute instant the last
        job ends — the caller schedules its continuation there and
        releases the pool slot.

        The accounting replays term by term what the same jobs run one
        :meth:`run_wall_then` after another produce: each cost takes the
        ``(wall / slowdown) * slowdown`` round trip, the end time is the
        left-associated sum, and the pool's busy-area summation is split
        (``note_split``) at every instant a stepwise job would have
        released its core — so results are bit-identical to the stepwise
        chain whenever nothing else queues for a core in between.  An
        attached sink gets each job's span now, from those instants."""
        pool = self.pool
        slowdown = self.slowdown
        sink = self.obs_sink
        lane = self._take_lane() if sink is not None else None
        end = self.sim._now
        for i, wall in enumerate(walls):
            if i:
                pool.note_split(end)
            service = (wall / slowdown) * slowdown
            self._book(service)
            start, end = end, end + service
            if sink is not None:
                sink.core_job(self._obs_node, self._obs_track, lane,
                              start, end)
        if lane is not None:
            heappush(self._obs_held, (end, lane))
        return end

    def _book(self, service: float) -> None:
        """Utilisation accounting of one job, whichever form runs it."""
        self.jobs_executed += 1
        self.busy_us += service

    def utilization(self, since: float = 0.0) -> float:
        return self.pool.utilization(since)

    def reset_utilization(self) -> None:
        self.pool.reset_utilization()


def _ignore(_value: Any) -> None:
    """The continuation of a charge nobody waits on."""


class _Job:
    """One core job that queues for a core or logs a span
    (:meth:`CoreGroup.run_then`).

    A callback chain: it takes a core at the pool's grant (or at once),
    books the service and waits it out on a ``call_after`` entry
    (``_end``); then logs its span to the sink attached when it started,
    frees its lane, releases the core and runs ``then``."""

    __slots__ = ("cores", "service", "then", "sink", "lane", "start")

    def __init__(self, cores: CoreGroup, service: float,
                 then: Callable[[Any], None]):
        self.cores = cores
        self.service = service
        self.then = then

    def _run(self, _arg: None) -> None:
        cores = self.cores
        self.sink = sink = cores.obs_sink
        self.lane = cores._take_lane() if sink is not None else None
        self.start = cores.sim._now
        cores._book(self.service)
        if self.service > 0:
            cores.sim.call_after(self.service, self._end)
        else:
            self._end(None)

    def _end(self, _arg: None) -> None:
        cores, sink, lane = self.cores, self.sink, self.lane
        if sink is not None:
            sink.core_job(cores._obs_node, cores._obs_track, lane,
                          self.start, cores.sim._now)
            if lane is not None:
                heappush(cores._obs_free, lane)
        cores.pool.release()
        self.then(None)
