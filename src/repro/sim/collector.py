"""Collector-quiet scopes: defer CPython's cyclic collector over the
phases that allocate only live, acyclic data.

Two phases of every experiment fit that description.  Building a
cluster allocates hundreds of thousands of table objects that all stay
alive, and every automatic full collection re-traverses all of them to
find nothing.  Draining the event loop allocates per-transaction state
that is freed by reference count the moment it completes (finished
processes and combinators hold no cycles — the ``DEBUG_SAVEALL`` test
in ``tests/test_sim_hotpath.py`` pins that), so each young collection
walks the in-flight state of every context and reports ``collected 0``.

``with collector_quiet:`` raises the generation-0 threshold to
:data:`QUIET_ALLOCATION_BUDGET` for the duration of the block instead of
calling ``gc.disable()``: a model that *does* leak cycles is still
collected once that many container objects have accumulated, so memory
stays bounded.  It nests (only the outermost scope touches the
thresholds), restores the caller's thresholds on return and on
exception, and leaves a caller who disabled collection alone.  The
thresholds are process-wide state, so the scope is one module-level
object; like the collector's own settings it is not per-thread.

On leaving the outermost scope the deferred young collection runs at the
caller's next allocation, once, over whatever is still alive.
"""

import gc

__all__ = ["QUIET_ALLOCATION_BUDGET", "collector_quiet"]

# Net container-object allocations a quiet scope tolerates before the
# collector runs anyway.  Sized from measurement (docs/PERFORMANCE.md,
# "Memory and the collector"): the largest cluster build of the repo's
# benchmark leaves ~0.5M tracked objects, so one power of two above that
# keeps every build and every steady-state run collection-free, while a
# leaking model is swept after at most ~100 MB of small cyclic garbage.
QUIET_ALLOCATION_BUDGET = 1 << 20


class _CollectorQuiet:
    def __init__(self):
        self._depth = 0
        self._restore = None

    def __enter__(self):
        if self._depth == 0 and gc.isenabled():
            thresholds = gc.get_threshold()
            if thresholds[0]:  # 0 is the collector's other "off" switch
                self._restore = thresholds
                gc.set_threshold(QUIET_ALLOCATION_BUDGET, *thresholds[1:])
        self._depth += 1
        return self

    def __exit__(self, *exc):
        self._depth -= 1
        if self._depth == 0 and self._restore is not None:
            gc.set_threshold(*self._restore)
            self._restore = None
        return False


collector_quiet = _CollectorQuiet()
