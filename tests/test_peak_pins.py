"""Pins at the benchmark's peak load, and the invariants behind them.

A delay chain whose length is known up front runs as one callback entry
(the fused form), and a site takes its contended form only when the
traffic leaves it no free core.  Who is attached decides nothing: an
Observer gets the fused form's spans from the instants it computed, and
a fault plan's draws are stages of the same chains, so a plan changes
the schedule only where a fault fires.  The tests here pin the digest
at the benchmark's peak load (c=64) on both legs of
``tests/queue_legs.py``, unobserved, observed and under a plan that
never fires alike, and the four baselines' results the same ways;
that such a plan is the bare run at every load
tested, on Xenic and on the four baselines; how much of each form the
pinned runs exercise; how few processes a peak run spawns, how few
``Event`` objects it builds (one per transaction, the client's) and how
many NIC handlers; and the event count the fused paths exist to
deliver.
"""

import contextlib
import functools
from typing import NamedTuple
from unittest import mock

import pytest

from repro.bench.runner import Bench
from repro.core.cluster import XenicCluster
from repro.core.nic_handlers import _Handler
from repro.core.protocol import XenicProtocol
from repro.core.txn import Coordinator
from repro.sim.core import Event, Process, Simulator, Timeout
from repro.sim.faults import FaultSpec
from repro.workloads import Smallbank

from .golden import baseline_payload, canonical_digest, fig8d_run
from .pins import pinned
from .queue_legs import both_legs, queue_leg


# Every fault kind drawn inside a fused chain (link stalls, NIC-core
# stalls, RDMA verb retries), at a probability that never fires: each
# category draws from its own child stream, so nothing else in the run
# moves.
NEVER_FIRING = FaultSpec(stall=1e-300, nic_stall=1e-300, rdma_fail=1e-300)


def default_faults(spec):
    """``Bench``'s ``faults`` argument for ``spec`` (``None``: no plan),
    at the root seed every pin here was taken with."""
    return None if spec is None else (spec, 1234)


def never_firing_plan():
    """A fault plan that draws at every site a fault can fire and never
    fires, as ``Bench``'s ``faults`` argument."""
    return default_faults(NEVER_FIRING)


def smallbank_bench(system, accounts, **kwargs):
    return Bench(
        system,
        Smallbank(3, accounts_per_server=accounts, hot_keys_fraction=0.25),
        n_nodes=3, **kwargs,
    )


@both_legs
def test_never_firing_plan_keeps_the_golden_digest(queue):
    """Under a plan that never fires the golden point keeps its digest,
    on both queue legs — a chaos run at this load measures the model the
    figures measure."""
    with queue_leg(queue):
        pinned("golden.c16.digest", canonical_digest(
            fig8d_run(16, faults=never_firing_plan())[1]))


@both_legs
def test_peak_digest_pinned(queue):
    """The load level the benchmark's peak phase measures (c=64, NIC
    cores queueing) is pinned too, on both queue legs; the golden point
    is c=16."""
    with queue_leg(queue):
        pinned("golden.c64.digest", canonical_digest(fig8d_run(64)[1]))


def subclasses(cls):
    return {c for sub in cls.__subclasses__()
            for c in {sub} | subclasses(sub)}


@contextlib.contextmanager
def counting_events():
    """Count every ``Event`` built — a ``Timeout``, a ``Process`` and
    any other subclass included — every Xenic NIC handler built and
    every ``run_transaction`` call and every Xenic inbound dispatch,
    while the block runs.  ``Timeout``
    is the one subclass that does not run ``Event.__init__``, so the two
    constructors see every event; a handler counts once, in the
    constructor its class resolves to."""
    assert subclasses(Event) == {Timeout, Process}
    counts = {"events": 0, "handlers": 0, "calls": 0, "dispatched": 0}
    event_init, timeout_init = Event.__init__, Timeout.__init__
    run_transaction = Coordinator.run_transaction
    dispatch = XenicProtocol._dispatch

    def built(init):
        def counted(self, *args, **kwargs):
            counts["events"] += 1
            init(self, *args, **kwargs)
        return counted

    def handler(init):
        def counted(self, *args, **kwargs):
            if type(self).__init__ is counted:
                counts["handlers"] += 1
            init(self, *args, **kwargs)
        return counted

    def called(self, spec):
        counts["calls"] += 1
        return run_transaction(self, spec)

    def dispatching(self, *args):
        counts["dispatched"] += 1
        return dispatch(self, *args)

    with contextlib.ExitStack() as patches:
        for cls in subclasses(_Handler):
            if "__init__" in vars(cls):
                patches.enter_context(mock.patch.object(
                    cls, "__init__", handler(vars(cls)["__init__"])))
        patches.enter_context(
            mock.patch.object(Event, "__init__", built(event_init)))
        patches.enter_context(
            mock.patch.object(Timeout, "__init__", built(timeout_init)))
        patches.enter_context(
            mock.patch.object(Coordinator, "run_transaction", called))
        patches.enter_context(
            mock.patch.object(XenicProtocol, "_dispatch", dispatching))
        yield counts


class GoldenRun(NamedTuple):
    digest: str
    contended: int  # inbound dispatches that found no free NIC core
    dispatched: int
    events: int
    spawned: int
    commits: int
    unlock_mismatches: int  # COMMIT unlocks that found the lock not held
    built: int  # Event objects built
    handlers: int  # Xenic NIC handlers built
    calls: int  # run_transaction calls


@functools.lru_cache(maxsize=None)
def golden_run(concurrency, obs=False, faults=None):
    """One run of the golden cluster under :func:`counting_events`,
    cached: several tests read the same runs.  Adds, summed over the
    cluster's protocols, the dispatches that took the contended form,
    and reads the engine's ``events_scheduled`` and
    ``processes_spawned`` and the commits over the whole run."""
    with counting_events() as counts:
        bench, payload = fig8d_run(concurrency, obs, default_faults(faults))
    return GoldenRun(
        canonical_digest(payload),
        sum(proto.stats.get("stepwise_dispatches")
            for proto in bench.cluster.protocols),
        counts["dispatched"], bench.sim.events_scheduled,
        bench.sim.processes_spawned, payload["total_commits"],
        sum(proto.stats.get("commit_unlock_mismatch")
            for proto in bench.cluster.protocols),
        counts["events"], counts["handlers"], counts["calls"])


def test_peak_digest_observer_neutral():
    """At peak load ``repro.obs.attrib`` explains the schedule the
    benchmark measures: on the fig8d cluster with warm-up 100 us /
    window 300 us at c=64 the observed run gives the unobserved run's
    digest, commits, aborts and latencies."""
    pinned("golden.c64.digest", golden_run(64, obs=True).digest)


def test_pins_cover_fast_path_fallback_and_mix():
    """What the pinned digests exercise, counted rather than assumed,
    and the same whoever is attached — no one, an Observer, a fault plan
    that never fires: the golden point is the fast path (a NIC core
    does, rarely, queue: ``golden.c16.contended`` of
    ``golden.c16.dispatched`` inbound dispatches find no free core) and
    the peak point a mix (``golden.c64.contended`` of
    ``golden.c64.dispatched``)."""
    for mode in ({}, {"obs": True}, {"faults": NEVER_FIRING}):
        for concurrency in (16, 64):
            run = golden_run(concurrency, **mode)
            for field in ("digest", "contended", "dispatched"):
                pinned("golden.c%d.%s" % (concurrency, field),
                       getattr(run, field))


@pytest.mark.parametrize("concurrency", [16, 64])
def test_fault_free_commits_release_every_lock(concurrency):
    """``commit_unlock_mismatch`` counts COMMIT unlocks that find the lock
    rebuilt or reassigned since EXECUTE, which only recovery does: on a
    fault-free run it stays 0."""
    assert golden_run(concurrency).unlock_mismatches == 0


# The ids are the names these tests had when each load's contended count
# was a parameter; the count is the pin ``golden.c<load>.contended``.
@pytest.mark.parametrize("concurrency", [16, 32, 64],
                         ids=["16-3", "32-62", "64-2342"])
def test_a_plan_that_never_fires_is_the_bare_run(concurrency):
    """A fault plan changes the schedule only where a fault fires: each
    draw is a stage of the one chain its site runs, so a plan on every
    kind that never fires gives the bare run's digest, contended
    dispatches, events and processes, at the golden point, at c=32 and
    at the peak."""
    bare = golden_run(concurrency)
    pinned("golden.c%d.contended" % concurrency, bare.contended)
    assert golden_run(concurrency, faults=NEVER_FIRING) == bare


def test_peak_run_spawns_no_process_per_commit():
    """No Xenic NIC handler, log worker or link drain loop spawns a
    Process, whether it finds a free core or queues: the c=64 golden run
    spawns only its load contexts (``golden.c64.spawned``) for its
    ``golden.c64.commits`` commits."""
    run = golden_run(64)
    pinned("golden.c64.spawned", run.spawned)
    pinned("golden.c64.commits", run.commits)
    assert run.spawned / run.commits < 0.03


def test_peak_run_builds_one_event_per_transaction():
    """Every model call below the client takes a continuation, so the
    c=64 golden run builds one ``Event`` per ``run_transaction`` call,
    the one its client yields, and otherwise only its load contexts'
    processes: no core job, DMA, log append, request, resource grant or
    retry driver builds one."""
    run = golden_run(64)
    pinned("golden.c64.commits", run.commits)
    pinned("golden.c64.spawned", run.spawned)
    assert run.built - run.spawned == run.calls
    assert run.calls <= run.commits + run.spawned


def test_peak_run_handlers_per_transaction():
    """One coordinator object per distributed attempt: a phase of a
    Xenic coordination is stages of its ``_Coordination``, and a handler
    is built only per inbound message, per attempt and per fan-out
    branch: the c=64 golden run's NIC handlers (``golden.c64.handlers``)
    over its ``run_transaction`` calls (``golden.c64.calls``)."""
    run = golden_run(64)
    pinned("golden.c64.handlers", run.handlers)
    pinned("golden.c64.calls", run.calls)


def test_attribution_sums_to_latency():
    """Per-phase latency attribution stays exact (the fused forms emit
    every annotation the stepwise ones do, from their computed
    instants)."""
    from repro.obs.attrib import attribute_bench

    bench = smallbank_bench("xenic", 1500, obs=True)
    result = bench.measure(4, warmup_us=60.0, window_us=250.0)
    assert result.commits > 0
    res = attribute_bench(bench)
    assert res.count > 0
    assert res.events_dropped == 0
    # acceptance bar: phases cover end-to-end latency within 1%
    assert res.max_residual_frac() < 0.01


def test_fig8d_events_per_txn_reduction():
    """The headline fused-path win, pinned as a regression gate: the
    fig8d point's events per committed txn stay under a ceiling a little
    above the measured value.  A plan
    that never fires schedules exactly these events
    (``test_a_plan_that_never_fires_is_the_bare_run``)."""
    result = smallbank_bench("xenic", 2000).measure(
        16, warmup_us=100.0, window_us=300.0)
    assert result.events_per_txn <= 29.0


BASELINES = ["drtmh", "drtmh_nc", "drtmr", "fasst"]


@functools.lru_cache(maxsize=None)
def baseline_run(system, queue="heap", obs=False, faults=None):
    """``baseline_payload`` of ``system`` on queue leg ``queue``, cached:
    several tests read the same runs."""
    with queue_leg(queue):
        return baseline_payload(system, obs=obs,
                                faults=default_faults(faults))


@pytest.mark.parametrize("system", BASELINES)
@both_legs
def test_baseline_digests_pinned(system, queue):
    """Each baseline's ``baseline_payload``: commits, aborts,
    throughput, clock, events and the primaries' committed values of
    each run, Smallbank over ``BASELINE_SWEEP`` then one Retwis point,
    on both queue legs."""
    pinned("baseline.%s.digest" % system,
           canonical_digest(baseline_run(system, queue)))


def simulated(runs):
    """``runs`` with every run's event count nulled."""
    return [dict(run, events_scheduled=None) for run in runs]


@pytest.mark.parametrize("system", BASELINES)
def test_baseline_simulated_digests_pinned(system):
    """Each baseline's results apart from its event counts: what it
    simulates, whatever the queue's bookkeeping counts.  A change to how
    the queue counts entries must leave this pin where it is."""
    pinned("baseline.%s.simulated_digest" % system,
           canonical_digest(simulated(baseline_run(system))))


@pytest.mark.parametrize("system", BASELINES)
def test_baseline_digest_observer_neutral(system):
    """An Observer changes no simulated result of a baseline run.  Its
    sampler schedules events of its own, so only the event count may
    differ."""
    assert simulated(baseline_run(system, obs=True)) == \
        simulated(baseline_run(system))


@pytest.mark.parametrize("system", ["drtmh", "drtmr", "fasst", "drtmh_nc"])
def test_baseline_never_firing_plan_keeps_the_digest(system):
    """A plan that never fires leaves the four baseline systems' runs
    untouched at c=8, 32 and 64 and on the Retwis point: retries and
    link stalls are drawn in the one verb and RPC chain, so commits,
    aborts, throughput, clock, events and committed values all match the
    bare run.  DrTM+R is the sensitive one: its CAS linearization order
    flips if the on_target-carrying event is pushed early, so this scale
    is chosen to have caught exactly that.  FaSST is all RPCs: the one
    full exercise of the RPC chain's host-core job."""
    planned = baseline_run(system, faults=NEVER_FIRING)
    pinned("baseline.%s.digest" % system, canonical_digest(planned))


@pytest.mark.parametrize("system", BASELINES)
def test_baseline_peak_run_spawns_no_process_per_commit(system):
    """No baseline coordinator spawns a Process: its attempt, every
    shard's, key's and backup's part of a phase and the background
    COMMIT are callback chains, so a c=64 run spawns exactly its 192
    load contexts."""
    bench = smallbank_bench(system, 1500)
    result = bench.measure(64, warmup_us=20.0, window_us=100.0)
    assert result.commits > 500
    assert bench.sim.processes_spawned == 3 * 64


@pytest.mark.parametrize("system", BASELINES)
def test_baseline_peak_run_builds_one_event_per_transaction(system):
    """A baseline's verbs, RPCs, core jobs and retry driver take
    continuations: its c=64 run builds one ``Event`` per
    ``run_transaction`` call beside its 192 load contexts' processes."""
    with counting_events() as counts:
        bench = smallbank_bench(system, 1500)
        result = bench.measure(64, warmup_us=20.0, window_us=100.0)
    assert result.commits > 500
    spawned = bench.sim.processes_spawned
    assert spawned == 3 * 64
    assert counts["events"] - spawned == counts["calls"]


def test_construction_is_event_free_and_linear(monkeypatch):
    """Cluster construction + bulk load at 64 nodes schedules no events,
    allocates per-node state independent of cluster size (tables
    per node == replication factor, one port and one handler per node),
    and inserts each key into a table once: backups are cloned from
    their finished primary, not loaded key by key."""
    from repro.store import RobinhoodTable

    inserted = []
    insert_many, insert = RobinhoodTable.insert_many, RobinhoodTable.insert

    def counting_insert_many(table, objs):
        objs = list(objs)
        inserted.append(len(objs))
        insert_many(table, objs)

    def counting_insert(table, key, obj=None):
        inserted.append(1)
        return insert(table, key, obj)

    monkeypatch.setattr(RobinhoodTable, "insert_many", counting_insert_many)
    monkeypatch.setattr(RobinhoodTable, "insert", counting_insert)
    sim = Simulator()
    cluster = XenicCluster(sim, 64, keys_per_shard=64)
    cluster.load_keys((k, None, None) for k in range(64 * 32))
    assert sum(inserted) == 64 * 32
    assert sim.events_scheduled == 0
    assert len(cluster.nodes) == 64
    rf = cluster.config.replication_factor
    assert all(len(n.tables) == rf for n in cluster.nodes)
    assert len(cluster.fabric._handlers) == 64
    assert len(cluster.fabric._ports) == 64
    # every key landed on exactly rf replicas
    total = sum(t.size for n in cluster.nodes for t in n.tables.values())
    assert total == 64 * 32 * rf


def test_bulk_load_asks_for_backups_once_per_shard():
    """The bulk-load path computes each shard's backup list once, and
    cloning changes nothing about what gets loaded where or in what
    order (Robinhood layout is insert-order sensitive)."""
    n, keys = 8, 256
    sim = Simulator()
    fast = XenicCluster(sim, n, keys_per_shard=64)
    calls = []
    orig = fast.backups_of
    fast.backups_of = lambda shard: (calls.append(shard), orig(shard))[1]
    fast.load_keys((k, None, None) for k in range(keys))
    assert len(calls) == n  # once per shard, not once per key
    # reference: the same keys one load_key at a time, which replays
    # every insert on every backup after the first key of a shard
    ref = XenicCluster(Simulator(), n, keys_per_shard=64)
    for k in range(keys):
        ref.load_key(k)
    for a, b in zip(fast.nodes, ref.nodes):
        for shard in a.tables:
            akeys = [o.key for o in a.tables[shard].objects()]
            bkeys = [o.key for o in b.tables[shard].objects()]
            assert akeys == bkeys


def test_nodes64_bench_completes_quick():
    """A 64-node Smallbank point builds, loads and measures a short
    window inside the quick budget and reports commits: keeps
    construction and loading O(n_nodes) honest (a quadratic term that is
    invisible at 3 nodes dominates here)."""
    import time

    t0 = time.perf_counter()
    bench = Bench("xenic", Smallbank(64, accounts_per_server=250,
                                     hot_keys_fraction=0.25), n_nodes=64)
    result = bench.measure(2, warmup_us=25.0, window_us=50.0)
    assert result.commits > 0
    assert bench.sim.events_scheduled > 0
    assert time.perf_counter() - t0 < 60.0
