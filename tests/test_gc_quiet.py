"""Collector-quiet phases and a steady state that grows nothing.

``repro.sim.collector`` defers CPython's cyclic collector over the two
phases that allocate only live, acyclic data: cluster construction and
the event loop.  These tests pin (a) that no automatic collection fires
inside ``Bench(...)`` or ``measure()``, (b) that the scope leaves the
caller's collector settings as it found them, (c) that the allocation
budget still bounds a model that *does* leak cycles, (d) that no
per-run container grows with transactions run, and (e) that duplicate
suppression by per-peer sequence numbers drops exactly what the full
``(src, wire_id)`` set it replaced dropped.
"""

import gc
import random
from collections import deque

import pytest

from repro.bench import chaos
from repro.bench.runner import Bench
from repro.core import messages, protocol
from repro.hw.network import NetMessage
from repro.sim import Simulator, collector_quiet
from repro.sim.collector import QUIET_ALLOCATION_BUDGET
from repro.sim.faults import FaultSpec
from repro.workloads import Retwis, Smallbank

from .golden import canonical_digest
from .pins import pinned
from .waits import waited


def golden_bench(system="xenic", workload=None):
    """The cluster of ``tests/golden.py`` (the reduced fig8d point
    ``golden.c16.digest`` pins), or the same three nodes on
    ``workload``."""
    return Bench(system, workload or Smallbank(
        3, accounts_per_server=2000, hot_keys_fraction=0.25), n_nodes=3)


class CollectionCounter:
    """Counts collections that start while ``on`` is set.  Switched by
    plain attribute stores so the switch itself allocates nothing: the
    collection a quiet scope deferred fires at the caller's next
    container allocation and must land outside the counted region."""

    def __init__(self):
        self.on = False
        self.collections = 0
        self.collected = 0

    def __call__(self, phase, info):
        if self.on:
            if phase == "start":
                self.collections += 1
            else:
                self.collected += info["collected"]


@pytest.fixture
def counter():
    assert gc.isenabled()
    probe = CollectionCounter()
    gc.collect()
    gc.callbacks.append(probe)
    yield probe
    gc.callbacks.remove(probe)


# ---------------------------------------------------------------------------
# (a) no automatic collection inside the quiet phases
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("system, workload", [
    pytest.param("xenic", None, id="xenic"),
    pytest.param("drtmh", None, id="drtmh"),
    pytest.param("xenic", Retwis(3, keys_per_server=2000), id="retwis"),
])
def test_no_collection_inside_bench_build_or_measure(counter, system,
                                                     workload):
    counter.on = True
    bench = golden_bench(system, workload)
    counter.on = False
    assert counter.collections == 0
    gc.collect()
    counter.on = True
    result = bench.measure(16, warmup_us=100.0, window_us=300.0)
    counter.on = False
    assert result.commits > 1000
    assert counter.collections == 0


def test_no_collection_inside_a_chaos_run(counter):
    """``run_chaos`` builds, runs and checks inside the library's quiet
    scopes: fault injection and invariant checking add no collection."""
    counter.on = True
    result = chaos.run_chaos(system="xenic", seed=3, n_txns=150, n_nodes=3)
    counter.on = False
    assert result.ok and result.commits > 0
    assert counter.collections == 0


def test_counter_sees_collections_outside_a_quiet_scope(counter):
    """The probe is not vacuous: the same allocations without a scope
    do trigger the collector."""
    counter.on = True
    keep = [[i] for i in range(5000)]
    counter.on = False
    assert len(keep) == 5000
    assert counter.collections > 0


def test_collector_timing_cannot_reach_simulated_state():
    """Byte-identical results per seed (EXPERIMENTS.md) hold whenever
    the collector runs, because nothing in the package reacts to an
    object being freed: no finalizers, no weak references."""
    import pathlib
    import re

    import repro

    reacts = re.compile(r"\b(__del__|weakref)\b")
    offenders = [
        "%s:%d" % (path.name, n)
        for path in sorted(pathlib.Path(repro.__file__).parent.rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if reacts.search(line)
    ]
    assert offenders == []


# ---------------------------------------------------------------------------
# (b) the scope restores what it found
# ---------------------------------------------------------------------------


def _thresholds_seen_by_a_callback(sim, seen):
    sim.call_after(
        1.0, lambda _arg: seen.append((gc.get_threshold(), gc.isenabled())))


def test_run_raises_threshold_and_restores_it():
    before = gc.get_threshold()
    sim = Simulator()
    seen = []
    _thresholds_seen_by_a_callback(sim, seen)
    sim.run()
    assert seen == [((QUIET_ALLOCATION_BUDGET,) + before[1:], True)]
    assert gc.get_threshold() == before and gc.isenabled()
    # the bounded form and run_until_event are scopes too
    _thresholds_seen_by_a_callback(sim, seen)
    sim.run(until=sim.now + 5.0)
    def observe(sim):
        yield sim.timeout(1.0)
        seen.append((gc.get_threshold(), True))

    sim.run_until_event(sim.spawn(observe(sim)))
    assert [s[0][0] for s in seen] == [QUIET_ALLOCATION_BUDGET] * 3
    assert gc.get_threshold() == before


def test_restored_after_a_callback_raises_out_of_run():
    before = gc.get_threshold()
    sim = Simulator()

    def boom(_e):
        raise RuntimeError("model bug")

    sim.call_after(1.0, boom)
    with pytest.raises(RuntimeError, match="model bug"):
        sim.run()
    assert gc.get_threshold() == before and gc.isenabled()
    assert collector_quiet._depth == 0


def test_nested_run_until_event_keeps_the_outer_scope():
    before = gc.get_threshold()
    outer, inner = Simulator(), Simulator()
    seen = []

    def nested(_e):
        inner.run_until_event(inner.timeout(2.0))
        # the inner drain returned; the outer one is still running
        seen.append(gc.get_threshold()[0])

    outer.call_after(1.0, nested)
    outer.run()
    assert seen == [QUIET_ALLOCATION_BUDGET]
    assert gc.get_threshold() == before


def test_a_caller_who_disabled_collection_is_left_alone():
    """Either way of switching the collector off: ``gc.disable()`` or a
    zero generation-0 threshold."""
    before = gc.get_threshold()
    seen = []
    try:
        gc.disable()
        sim = Simulator()
        _thresholds_seen_by_a_callback(sim, seen)
        sim.run()
        assert not gc.isenabled()
        gc.enable()
        gc.set_threshold(0, 10, 10)
        _thresholds_seen_by_a_callback(sim, seen)
        sim.run()
        assert gc.get_threshold() == (0, 10, 10)
    finally:
        gc.enable()
        gc.set_threshold(*before)
    assert seen == [(before, False), ((0, 10, 10), True)]


# ---------------------------------------------------------------------------
# (c) the allocation budget is a real bound
# ---------------------------------------------------------------------------


class Knot:
    """The smallest cyclic garbage: an object that references itself."""

    __slots__ = ("me",)

    def __init__(self):
        self.me = self


def _leaky_model(sim, knots, per_step=10_000):
    for _ in range(knots // per_step):
        for _ in range(per_step):
            Knot()
        yield sim.timeout(1.0)


def test_leaking_model_is_collected_within_the_budget(counter):
    sim = Simulator()
    sim.spawn(_leaky_model(sim, QUIET_ALLOCATION_BUDGET // 2))
    counter.on = True
    sim.run()
    counter.on = False
    assert counter.collections == 0          # under budget: quiet
    gc.collect()

    sim.spawn(_leaky_model(sim, QUIET_ALLOCATION_BUDGET * 2))
    counter.on = True
    sim.run()
    counter.on = False
    assert counter.collections >= 1          # over budget: swept mid-run
    assert counter.collected > 0.9 * QUIET_ALLOCATION_BUDGET


# ---------------------------------------------------------------------------
# (d) nothing grows with transactions run
# ---------------------------------------------------------------------------

_SIZED = (dict, set, list, deque)
_IN_FLIGHT_SLACK = 256


def _attribute_names(obj):
    names = list(getattr(obj, "__dict__", ()))
    for klass in type(obj).__mro__:
        names.extend(getattr(klass, "__slots__", ()))
    return names


def _container_lens(label, obj):
    """``{label.attr: entries}`` for every sized container attribute of
    ``obj``, counting one level of nesting (per-peer sets, per-instant buckets)."""
    out = {}
    for name in _attribute_names(obj):
        value = getattr(obj, name, None)
        if isinstance(value, _SIZED):
            inner = value.values() if isinstance(value, dict) else value
            out["%s.%s" % (label, name)] = len(value) + sum(
                len(v) for v in inner if isinstance(v, _SIZED))
    return out


def _census(bench):
    sizes = _container_lens("sim", bench.sim)
    for proto in bench.cluster.protocols:
        node = proto.node
        n = "n%d" % node.node_id
        for label, obj in (("protocol", proto), ("runtime", proto.runtime),
                           ("pending", proto.runtime.pending),
                           ("host_pending", proto.host_pending),
                           ("node", node), ("log", node.log),
                           ("link", node.nic.port._link)):
            sizes.update(_container_lens("%s.%s" % (n, label), obj))
        for shard, index in node.indexes.items():
            sizes.update(_container_lens("%s.index%d" % (n, shard), index))
    return sizes


def test_steady_state_containers_do_not_grow():
    bench = golden_bench()
    bench.measure(16, warmup_us=100.0, window_us=300.0)
    first = bench.measure(16, warmup_us=0.0, window_us=300.0)
    after1 = _census(bench)
    second = bench.measure(16, warmup_us=0.0, window_us=300.0)
    after2 = _census(bench)
    assert first.commits > 1000 and second.commits > 1000

    grown = {}
    for name, size in after2.items():
        attr = name.rsplit(".", 1)[1]
        if attr in ("_meta", "_loc_hints"):
            continue  # per key, not per transaction: bounded below
        if size > after1[name] + _IN_FLIGHT_SLACK:
            grown[name] = (after1[name], size)
    assert grown == {}
    # Between runs every bucket is a pending instant's: one heap entry
    # each, and none left behind by an instant that ran.
    assert len(bench.sim._buckets) == len(bench.sim._heap)
    for node in bench.cluster.nodes:
        for index in node.indexes.values():
            keys = len(index.host_table)
            assert len(index._meta) <= keys
            assert len(index._loc_hints) <= keys
    # without faults the fabric is FIFO per pair: nothing is ever parked
    for proto in bench.cluster.protocols:
        assert not any(proto._wire_seen_ahead)
        assert sum(proto._wire_seen_upto) > 1000


# ---------------------------------------------------------------------------
# (e) duplicate suppression drops exactly the duplicates
# ---------------------------------------------------------------------------

def test_dup_fault_plan_drops_exactly_the_injected_duplicates(monkeypatch):
    benches = []

    class Captured(Bench):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            benches.append(self)

    monkeypatch.setattr(chaos, "Bench", Captured)
    result = chaos.run_chaos(system="xenic", seed=3, faults="dup=0.2",
                             n_txns=40, n_nodes=3)
    protocols = benches[0].cluster.protocols
    assert result.ok
    injected = result.trace.counts["dup"]
    assert injected > 20
    # the run drains, so every injected copy was delivered and dropped
    assert sum(p.stats.get("dup_wire_dropped") for p in protocols) == injected
    assert not any(s for p in protocols for s in p._wire_seen_ahead)
    payload = {
        "commits": result.commits, "aborts": result.aborts,
        "limbo": result.limbo, "violations": list(result.violations),
        "sim_time_us": result.sim_time_us,
        "fault_summary": result.trace.summary(),
        "trace": result.trace.digest(),
        "final_values": {str(k): v for k, v in
                         sorted(result.final_values.items())},
    }
    pinned("chaos_dup.digest", canonical_digest(payload))


def test_sequence_dedupe_matches_a_full_set_under_reordering():
    """Reference check: deliveries shuffled within a window, a fifth of
    them duplicated — each drop decision equals a plain set's, and once
    every id has arrived nothing is left parked."""
    rng = random.Random(14)
    ids = list(range(1, 401))
    arrivals = []
    for start in range(0, len(ids), 8):
        window = ids[start:start + 8]
        window += rng.sample(window, 2)
        rng.shuffle(window)
        arrivals += window
    arrivals += rng.sample(ids, 40)  # late retransmits

    proto = golden_bench().cluster.protocols[0]
    seen = set()
    parked_max = 0
    for wire_id in arrivals:
        before = proto.stats.get("dup_wire_dropped")
        proto._on_wire(NetMessage(1, 0, "resp", 16, ("resp", -1, None),
                                  wire_id=wire_id))
        dropped = proto.stats.get("dup_wire_dropped") - before
        assert dropped == (wire_id in seen), wire_id
        seen.add(wire_id)
        parked_max = max(parked_max, len(proto._wire_seen_ahead[1]))
    assert proto._wire_seen_upto[1] == 400
    assert not proto._wire_seen_ahead[1]
    assert 0 < parked_max < 8  # bounded by the reorder window


def test_crash_dropped_gap_is_written_off_within_the_window(monkeypatch):
    """Traffic of a crashed node is lost for good, so the ids it
    consumed never arrive.  After the restart each side parks what
    follows the gap only until a window's worth has passed it, then is
    back on the in-order path; nothing fresh is dropped meanwhile."""
    window = 16
    monkeypatch.setattr(protocol, "WIRE_REORDER_WINDOW", window)
    bench = Bench("xenic", chaos.Increments(3), n_nodes=3,
                  faults=(FaultSpec(), 1))
    sim, cluster, plan = bench.sim, bench.cluster, bench.fault_plan
    peer, crasher = cluster.protocols[0], cluster.protocols[1]
    answered = []
    parked_max = [0, 0]

    def unlock(i):
        return messages.Request(messages.UNLOCK, 10_000 + i, 1, 0)

    def ignore(_resp):
        """The continuation of a request nobody waits on."""

    def driver():
        for i in range(5):
            yield waited(sim, peer._send_request, 1, unlock(i))
        plan.crash_node(1)
        for i in range(5, 12):
            peer._send_request(1, unlock(i), ignore)  # numbered, then dropped
        for i in range(3):
            crasher._send_request(0, unlock(i), ignore)  # a zombie's sends too
        yield sim.timeout(50.0)
        plan.restart_node(1)
        for i in range(12, 12 + 4 * window):
            resp = yield waited(sim, peer._send_request, 1, unlock(i))
            answered.append(resp.ok)
            parked_max[0] = max(parked_max[0],
                                len(crasher._wire_seen_ahead[0]))
            parked_max[1] = max(parked_max[1],
                                len(peer._wire_seen_ahead[1]))

    sim.spawn(driver())
    sim.run()
    assert plan.trace.counts["crash-drop"] == 10
    assert answered == [True] * (4 * window)
    assert parked_max == [window, window]  # grew to the bound, no further
    for receiver, sender, src, dst in ((crasher, peer, 0, 1),
                                       (peer, crasher, 1, 0)):
        assert not receiver._wire_seen_ahead[src]
        assert receiver._wire_seen_upto[src] == sender._wire_seq[dst]
        assert receiver.stats.get("dup_wire_dropped") == 0
    # duplicates are still caught after the write-off, and a straggler
    # from inside the written-off gap counts as one
    for wire_id in (crasher._wire_seen_upto[0], 8):
        crasher._on_wire(NetMessage(0, 1, "resp", 16, ("resp", -1, None),
                                    wire_id=wire_id))
    assert crasher.stats.get("dup_wire_dropped") == 2
