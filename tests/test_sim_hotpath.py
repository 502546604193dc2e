"""Regression tests for the event-loop hot-path work: run(until)
boundary semantics, the resource fast path, cycle-free completion, and
exact events per operation."""

import functools

import pytest

from repro.baselines import BaselineCluster, DrTMH
from repro.core import XenicCluster
from repro.core.txn import TxnSpec
from repro.hw.cpu import CoreGroup
from repro.hw.params import TESTBED
from repro.hw.rdma import RdmaNic
from repro.sim.core import SimulationError, Simulator, Timeout
from repro.sim.faults import FaultPlan, FaultSpec
from repro.sim.link import SerialLink
from repro.sim.resources import Resource
from repro.sim.rng import RngStream

from .pins import pinned
from .waits import waited


# ---------------------------------------------------------------------------
# run(until=...) boundary
# ---------------------------------------------------------------------------


def test_run_until_fires_event_exactly_at_boundary():
    sim = Simulator()
    fired = []

    def proc():
        yield Timeout(sim, 5.0)
        fired.append(sim.now)

    sim.spawn(proc())
    sim.run(until=5.0)
    assert sim.now == 5.0
    assert fired == [5.0]


def test_run_until_with_empty_queue_advances_clock():
    sim = Simulator()
    sim.run(until=7.5)
    assert sim.now == 7.5


# ---------------------------------------------------------------------------
# no double dispatch
# ---------------------------------------------------------------------------


def test_event_double_trigger_still_rejected():
    sim = Simulator()
    ev = sim.event().succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


# ---------------------------------------------------------------------------
# resource fast path
# ---------------------------------------------------------------------------


def test_try_acquire_fast_path_counts_like_acquire():
    sim = Simulator()
    res = Resource(sim, 2)
    assert res.try_acquire()
    assert res.try_acquire()
    assert not res.try_acquire()  # full
    assert res.in_use == 2
    res.release()
    assert res.try_acquire()
    res.release()
    res.release()
    assert res.in_use == 0


def test_try_acquire_defers_to_waiters():
    """A free slot must not be stolen past queued waiters (FIFO)."""
    sim = Simulator()
    res = Resource(sim, 1)
    order = []

    def holder():
        yield waited(sim, res.acquire)
        yield Timeout(sim, 5.0)
        order.append("holder-release")
        res.release()

    def waiter():
        yield Timeout(sim, 1.0)
        yield waited(sim, res.acquire)
        order.append("waiter-got-it")
        res.release()

    def opportunist():
        yield Timeout(sim, 2.0)
        # waiter is queued: the fast path must refuse even though
        # in_use briefly drops at release time
        assert not res.try_acquire()
        order.append("opportunist-refused")

    sim.spawn(holder())
    sim.spawn(waiter())
    sim.spawn(opportunist())
    sim.run()
    assert order == ["opportunist-refused", "holder-release",
                     "waiter-got-it"]


def test_rdma_public_utilization_accessor():
    sim = Simulator()
    a = RdmaNic(sim, 0)
    b = RdmaNic(sim, 1)
    assert a.utilization() == 0.0
    assert a.wire_bytes == 0
    sim.run_until_event(waited(sim, a.write, b, 256))
    assert a.wire_bytes > 0
    assert a.utilization() == a._wire.utilization(0.0)


# ---------------------------------------------------------------------------
# cycle-free completion
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("system", ["xenic", "drtmh", "fasst", "drtmr"])
def test_finished_processes_need_no_cycle_collector(system):
    """Everything the event loop allocates is freed by reference count:
    a finished Process drops its cached bound methods, a Gather holds
    only its parent's continuation, and no callback chain (a verb, a
    core job, a NIC handler, a log worker) reaches itself.  With the collector off and
    DEBUG_SAVEALL on, a window of ~200 transactions at c=4, and one at
    c=64 where cores queue, leave nothing at all for gc.collect() to
    find."""
    import gc

    from repro.bench.runner import Bench
    from repro.workloads import Smallbank

    bench = Bench(system, Smallbank(3, accounts_per_server=300,
                                    hot_keys_fraction=0.25), n_nodes=3)
    bench.measure(4, warmup_us=0.0, window_us=30.0)
    gc.collect()
    was_enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    leaked = {}
    try:
        for concurrency in (4, 64):
            result = bench.measure(concurrency, warmup_us=0.0,
                                   window_us=250.0)
            gc.collect()
            leaked[concurrency] = sorted({type(o).__name__
                                          for o in gc.garbage})
            assert result.commits >= 200
            gc.garbage.clear()
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
        gc.collect()
    assert leaked == {4: [], 64: []}


@pytest.mark.parametrize("system", ["xenic", "drtmh", "fasst", "drtmr"])
def test_dropped_simulation_stays_dead_in_the_collector(system,
                                                         monkeypatch):
    """A contended run stops with core jobs holding cores, waiters
    queued and client generators suspended.  Once nobody references the
    run, the collector frees it and closes those generators; that must
    not release a core, or the waiter it hands the core to resumes the
    dead cluster inside ``gc.collect()`` and keeps the whole cluster
    alive for another collection."""
    import gc

    from repro.bench.runner import Bench
    from repro.workloads import Smallbank

    def contended_run():
        bench = Bench(system, Smallbank(3, accounts_per_server=2000,
                                        hot_keys_fraction=0.25), n_nodes=3)
        bench.measure(64, warmup_us=0.0, window_us=50.0)
        return id(bench.sim)

    released = []
    release = Resource.release
    gc.collect()
    gc.disable()
    try:
        sim_id = contended_run()
        monkeypatch.setattr(
            Resource, "release",
            lambda self: (released.append(1), release(self))[1])
        gc.collect()
    finally:
        gc.enable()
    assert released == []
    assert not any(type(o) is Simulator and id(o) == sim_id
                   for o in gc.get_objects())


# ---------------------------------------------------------------------------
# exact events per operation: each loop returns its process bodies (a
# generator expression is a body that yields one event per item; a
# body waiting on a model call yields the event it passed the call's
# ``succeed`` to, which schedules nothing)
# ---------------------------------------------------------------------------


def _timeouts(sim):
    return [(Timeout(sim, 1.0) for _ in range(100))]


def _resource(sim):
    res = Resource(sim, 4)

    def worker():
        for _ in range(25):
            yield waited(sim, res.acquire)
            yield Timeout(sim, 1.0)
            res.release()
    return [worker() for _ in range(8)]


def _link(sim):
    link = SerialLink(sim, bandwidth_gbps=100.0, overhead_us=0.1)

    def body():
        for _ in range(25):
            delivered = sim.event()
            link.transfer(256, delivered.succeed)
            yield delivered
    return [body() for _ in range(4)]


def _commit_path(sim):
    cluster = XenicCluster(sim, 3, keys_per_shard=4096, value_size=64)
    cluster.load_keys((k, None, None) for k in range(200))
    cluster.prewarm_nic_caches()
    cluster.start()

    def driver():
        for key in range(200):
            yield from cluster.protocols[0].run_transaction(
                TxnSpec([key], [key]))
    return [driver()]


def _baseline_commit_path(sim):
    cluster = BaselineCluster(sim, 3, DrTMH, keys_per_shard=4096,
                              value_size=64)
    keys = [3 * i + 1 for i in range(200)]  # all on shard 1
    cluster.load_keys((k, None, None) for k in keys)

    def driver():
        for key in keys:
            yield from cluster.coordinators[0].run_transaction(
                TxnSpec([key], [key]))
    return [driver()]


def _host_cores(sim):
    return CoreGroup(sim, TESTBED.host.cpu, cores=2)


# RDMA loops whose initiator carries a fault plan: one that never fires,
# and one whose 100 verbs draw retries (seed 1)
NEVER_FIRES = FaultSpec(rdma_fail=1e-300)
RETRIED = FaultSpec(rdma_fail=0.3, rdma_retry_us=8.0)


def _verbs(sim, rpc, spec=None):
    """NIC 0, with a fault plan of ``spec`` when one is given, and four
    drivers of 25 reads (or RPCs) from it to NIC 1."""
    a = RdmaNic(sim, 0)
    if spec is not None:
        a.injector = FaultPlan(spec, RngStream(1, "faults"))
        a.injector.sim = sim
    b = RdmaNic(sim, 1, host_cores=_host_cores(sim))
    if rpc:
        return a, [(waited(sim, a.rpc, b, 64, 16, handler_ref_us=0.1)
                    for _ in range(25)) for _ in range(4)]
    return a, [(waited(sim, a.read, b, 64) for _ in range(25))
               for _ in range(4)]


def _rdma_read(sim, spec=None):
    return _verbs(sim, False, spec)[1]


def _rpc(sim, spec=None):
    return _verbs(sim, True, spec)[1]


def _core_execute(sim):
    cores = _host_cores(sim)
    return [(waited(sim, cores.execute, 0.5) for _ in range(25))
            for _ in range(4)]


def _run_loop(sim, bodies):
    for proc in [sim.spawn(body) for body in bodies]:
        sim.run_until_event(proc)


PER_OP_LOOPS = {
    "timeouts": _timeouts, "resource": _resource, "link": _link,
    "commit_path": _commit_path,
    "baseline_commit_path": _baseline_commit_path,
    "rdma_read": _rdma_read, "rpc": _rpc, "core_execute": _core_execute,
    "rdma_read_never_fires": functools.partial(_rdma_read, spec=NEVER_FIRES),
    "rpc_never_fires": functools.partial(_rpc, spec=NEVER_FIRES),
    "rdma_read_retried": functools.partial(_rdma_read, spec=RETRIED),
    "rpc_retried": functools.partial(_rpc, spec=RETRIED),
}


@pytest.mark.parametrize("op", PER_OP_LOOPS)
def test_events_scheduled_per_op_is_exact(op):
    """``events_scheduled`` (instants queued: one per bucket opened) is
    a pure function of the code: a de-fused site or a reintroduced spawn
    moves the count of the primitive that caused it, with no wall time
    involved.  ``processes_spawned`` counts
    the generators behind them: an RDMA verb, an RPC, a queued core job,
    every Xenic NIC handler and every link's drain loop run as callback
    chains, so those loops spawn only their drivers — under a fault plan
    too, where a plan that never fires
    gives the bare counts and each retry is a timeout in the verb's own
    chain.  The pin ``per_op.<op>`` is (events, processes)."""
    sim = Simulator()
    _run_loop(sim, PER_OP_LOOPS[op](sim))
    pinned("per_op." + op, (sim.events_scheduled, sim.processes_spawned))


@pytest.mark.parametrize("op", ["rdma_read", "rpc"])
def test_rdma_retries_land_at_exact_instants(op):
    """The retried loops above: the last verb lands at an exact instant
    — each retry waits ``rdma_retry_us`` in front of the wire.  The pin
    ``retried.<op>`` is (that instant, retries counted on the initiator,
    traced failures drawn at TX-done)."""
    sim = Simulator()
    nic, bodies = _verbs(sim, op == "rpc", RETRIED)
    _run_loop(sim, bodies)
    pinned("retried." + op,
           (sim.now, nic.retries, len(nic.injector.trace)))
