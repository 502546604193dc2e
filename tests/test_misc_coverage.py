"""Coverage for assorted helpers: cluster loading, log draining, store
edges, and report formatting."""

import pytest

from repro.core import TxnSpec, XenicCluster, XenicConfig
from repro.sim import Simulator

from .robinhood_reference import check_invariants


def test_cluster_load_keys_items():
    sim = Simulator()
    cluster = XenicCluster(sim, 3, keys_per_shard=64, value_size=48)
    cluster.load_keys((k, k * 10, 32 if k == 4 else None) for k in range(9))
    assert cluster.read_committed_value(4) == 40
    assert cluster.nodes[1].tables[1].get_object(4).size == 32
    assert cluster.nodes[2].tables[2].get_object(5).size == 48


def test_cluster_drain_logs():
    sim = Simulator()
    cluster = XenicCluster(sim, 3, keys_per_shard=64)
    cluster.load_keys((k, 0, None) for k in range(9))
    cluster.start()
    proc = sim.spawn(cluster.protocols[0].run_transaction(
        TxnSpec(read_keys=[1], write_keys=[1],
                logic=lambda r, s: {1: 1})))
    sim.run_until_event(proc, limit=1e7)
    cluster.drain_logs()
    for node in cluster.nodes:
        assert node.log.in_log == 0


def test_cluster_validates_node_count():
    with pytest.raises(ValueError):
        XenicCluster(Simulator(), 0)


def test_robinhood_delete_via_overflow_swap():
    from repro.store import RobinhoodTable

    t = RobinhoodTable(64, dm=2, segment_size=8, hash_salt=3)
    for k in range(52):
        t.insert(k)
    assert t.overflow_count > 0
    # delete in-table keys until an overflow swap occurs
    swaps = 0
    for k in range(52):
        res = t.lookup(k)
        if res.found and not res.in_overflow:
            out = t.delete(k)
            if out.overflow_swap:
                swaps += 1
            check_invariants(t)
            if swaps:
                break
    assert swaps >= 1


def test_hopscotch_repr_contains():
    from repro.store import HopscotchTable

    t = HopscotchTable(32, neighborhood=4)
    t.insert(7)
    assert 7 in t
    assert 8 not in t
    assert t.occupancy > 0


def test_chained_contains_and_objects():
    from repro.store import ChainedTable, VersionedObject

    t = ChainedTable(4, bucket_size=2)
    t.insert(3, VersionedObject(3, value="v"))
    assert 3 in t
    assert t.get_object(3).value == "v"
    assert [o.key for o in t.objects()] == [3]
    t.delete(3)
    assert t.get_object(3) is None


def test_log_record_size_property():
    from repro.store import LogRecord, VersionedObject

    rec = LogRecord(1, "log", 0, [(5, VersionedObject(5, size=100), 1)])
    assert rec.size_bytes == 24 + 16 + 100


def test_event_fail_requires_exception():
    from repro.sim import Simulator

    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_event_fail_propagates():
    sim = Simulator()

    def waiter(sim, ev):
        with pytest.raises(RuntimeError):
            yield ev
        return "caught"

    ev = sim.event()
    p = sim.spawn(waiter(sim, ev))
    ev.fail(RuntimeError("x"))
    sim.run()
    assert p.value == "caught"


def test_run_until_in_past_rejected():
    from repro.sim.core import SimulationError

    sim = Simulator()
    sim.spawn(iter([sim.timeout(10.0)]))
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=5.0)


def test_print_helpers_smoke(capsys):
    from repro.bench.report import print_curves, print_table
    from repro.bench.runner import RunResult

    print_table("t", ["a"], [[1]])
    r = RunResult("xenic", "wl", 2, 1000.0, 5.0, 9.0, 6.0, 10, 0, 100.0)
    print_curves("c", {"xenic": [r]})
    out = capsys.readouterr().out
    assert "xenic" in out and "1000" in out
