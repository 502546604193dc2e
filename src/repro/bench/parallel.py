"""Fan independent runs across processes.

Every run the harness fans out (a chaos seed, an SLO load point, a row
of ``python -m repro paper``) builds its own
:class:`~repro.sim.core.Simulator` from its arguments alone, so runs are
embarrassingly parallel.  :func:`fan_out` maps one picklable function
over the items, serially or across a ``concurrent.futures`` process
pool.

Determinism: both paths call the *same* function on the same items and
return results in item order, so ``jobs=4`` output is byte-identical to
``jobs=1``: each simulation is seeded and single-threaded, and no result
depends on pool scheduling.  Workers are spawned, not forked, so a
worker inherits nothing from the parent but the function and its item.
A pool that cannot be created (sandboxes without process semaphores)
falls back to the serial path.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, TypeVar

__all__ = ["fan_out"]

T = TypeVar("T")
R = TypeVar("R")


def fan_out(fn: Callable[[T], R], items: Sequence[T], jobs: int) -> List[R]:
    """``[fn(item) for item in items]``, across up to ``jobs`` worker
    processes.  Runs serially when ``jobs <= 1`` or there is one item;
    otherwise ``fn`` must be importable by name (a spawned worker
    imports it afresh) and the items must pickle."""
    items = list(items)
    jobs = min(jobs, len(items))
    if jobs > 1:
        import concurrent.futures
        import multiprocessing

        try:
            with concurrent.futures.ProcessPoolExecutor(
                    max_workers=jobs,
                    mp_context=multiprocessing.get_context("spawn")) as pool:
                return list(pool.map(fn, items))
        except OSError:
            pass  # no process semaphores here: run serially
    return [fn(item) for item in items]
