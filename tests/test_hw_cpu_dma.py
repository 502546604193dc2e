"""Tests for the CPU core-group and DMA engine models."""

import pytest

from repro.hw import CoreGroup, DmaEngine, DmaOp, LIQUIDIO3_CPU, XEON_GOLD_5218
from repro.hw.params import DmaParams
from repro.sim import Simulator

from .waits import vector_waited, waited


# ---------------------------------------------------------------------------
# CoreGroup
# ---------------------------------------------------------------------------


def test_nic_cores_slower_than_host():
    sim = Simulator()
    host = CoreGroup(sim, XEON_GOLD_5218, cores=1)
    nic = CoreGroup(sim, LIQUIDIO3_CPU, cores=1)
    assert host.service_us(1.0) == pytest.approx(1.0)
    # Table 1: Xeon per-thread is 3.26x the ARM, so ARM jobs stretch ~3.26x.
    assert nic.service_us(1.0) == pytest.approx(14771.0 / 4530.0, rel=1e-3)


def test_core_group_queues_beyond_capacity():
    sim = Simulator()
    cores = CoreGroup(sim, XEON_GOLD_5218, cores=2)
    done_times = []

    def proc(sim):
        yield waited(sim, cores.execute, 10.0)
        done_times.append(sim.now)

    for _ in range(4):
        sim.spawn(proc(sim))
    sim.run()
    assert sorted(done_times) == [10.0, 10.0, 20.0, 20.0]


def test_core_group_job_resumes_a_process_at_completion():
    sim = Simulator()
    cores = CoreGroup(sim, XEON_GOLD_5218, cores=1)

    def proc(sim):
        yield waited(sim, cores.execute, 5.0)
        return sim.now

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.value == 5.0


def test_core_group_utilization():
    sim = Simulator()
    cores = CoreGroup(sim, XEON_GOLD_5218, cores=1)

    def proc(sim):
        yield waited(sim, cores.execute, 6.0)
        yield sim.timeout(4.0)

    sim.spawn(proc(sim))
    sim.run()
    assert cores.utilization() == pytest.approx(0.6)


def test_every_form_books_a_job_the_same():
    """One job of the same wall cost reads the same in ``jobs_executed``
    and ``busy_us`` whether it ran as a process, a hold or a lazy charge
    (0.12 us does not survive the wall -> reference -> wall round trip
    on the NIC's speed ratio, so raw and round-tripped costs differ)."""
    wall = 0.12

    def booked(occupy):
        sim = Simulator()
        cores = CoreGroup(sim, LIQUIDIO3_CPU, cores=2)
        occupy(sim, cores)
        sim.run()
        return cores.jobs_executed, cores.busy_us

    def hold(sim, cores):
        sim.call_at(cores.try_hold((wall,)), lambda _e: cores.pool.release())

    stepwise = booked(lambda sim, cores: cores.execute_wall(wall, lambda _arg: None))
    assert stepwise[1] != wall
    assert booked(hold) == stepwise
    assert booked(lambda sim, cores: cores.charge_wall(wall)) == stepwise


def test_observed_holds_and_charges_keep_to_their_lanes():
    """Under a sink every form logs its jobs, the fused ones from their
    computed instants; a lane a hold or a lazy charge occupies is not
    handed out again before it ends."""
    sim = Simulator()
    cores = CoreGroup(sim, XEON_GOLD_5218, cores=2)
    spans = []
    cores.attach_obs(
        type("Sink", (), {"core_job": lambda self, *a: spans.append(a[2:])})(),
        0, "host")
    cores.charge_wall(3.0)                      # lane 0 until t=3
    end = cores.try_hold((1.0, 1.0))            # lane 1 until t=2
    sim.call_at(end, lambda _e: (cores.pool.release(),
                                 cores.charge_wall(2.0)))
    sim.run()
    assert spans == [(0, 0.0, 3.0), (1, 0.0, 1.0), (1, 1.0, 2.0),
                     (1, 2.0, 4.0)]
    assert cores.jobs_executed == 4 and cores.busy_us == 7.0


def test_core_group_validates_core_count():
    sim = Simulator()
    with pytest.raises(ValueError):
        CoreGroup(sim, XEON_GOLD_5218, cores=0)


# ---------------------------------------------------------------------------
# DmaEngine
# ---------------------------------------------------------------------------


def test_dma_single_read_latency_includes_completion():
    sim = Simulator()
    engine = DmaEngine(sim)

    def proc(sim):
        yield waited(sim, engine.read, 64)
        return sim.now

    p = sim.spawn(proc(sim))
    sim.run()
    # queue service + read completion latency (1.295us) must be included
    assert p.value > DmaParams().read_completion_us
    assert p.value < 5.0


def test_dma_write_completion_faster_than_read():
    sim = Simulator()
    engine = DmaEngine(sim)

    def rd(sim):
        yield waited(sim, engine.read, 64)
        return sim.now

    p_r = sim.spawn(rd(sim))
    sim.run()

    sim2 = Simulator()
    engine2 = DmaEngine(sim2)

    def wr(sim):
        yield waited(sim, engine2.write, 64)
        return sim.now

    p_w = sim2.spawn(wr(sim2))
    sim2.run()
    assert p_w.value < p_r.value


def test_dma_vector_limit_enforced():
    sim = Simulator()
    engine = DmaEngine(sim)
    ops = [DmaOp(size=8, is_read=True) for _ in range(16)]
    with pytest.raises(ValueError):
        engine.submit(ops)
    with pytest.raises(ValueError):
        engine.submit([])


def test_dma_vectored_throughput_beats_single():
    """Figure 4a: vectored submission raises ops/s substantially."""

    def run(vector_size, total_ops=1200):
        sim = Simulator()
        engine = DmaEngine(sim)

        def submitter(sim):
            remaining = total_ops
            while remaining > 0:
                n = min(vector_size, remaining)
                ops = [DmaOp(size=32, is_read=False) for _ in range(n)]
                ev = vector_waited(sim, engine, ops)
                remaining -= n
                # 8 queues: keep them all fed by not waiting for completion,
                # but pace at the submission cost.
                yield sim.timeout(engine.submission_cost_us)
            yield ev

        sim.spawn(submitter(sim))
        sim.run()
        return total_ops / sim.now  # ops/us == Mops/s

    single = run(1)
    vectored = run(15)
    assert vectored > 1.2 * single
    # Hardware ceiling: 8.7 Mops/s, within modeling tolerance.
    assert vectored == pytest.approx(8.7, rel=0.2)
    assert single < 8.0


def test_dma_per_op_callbacks_fire():
    sim = Simulator()
    engine = DmaEngine(sim)
    completed = []
    ops = [
        DmaOp(size=16, is_read=True,
              then=lambda _arg, i=i: completed.append(i))
        for i in range(5)
    ]
    engine.submit(ops)
    sim.run()
    assert sorted(completed) == [0, 1, 2, 3, 4]


def test_dma_large_transfers_bounded_by_pcie_bandwidth():
    sim = Simulator()
    engine = DmaEngine(sim)
    total_bytes = 0

    def submitter(sim):
        nonlocal total_bytes
        evs = []
        for _ in range(100):
            ops = [DmaOp(size=4096, is_read=False) for _ in range(10)]
            evs.append(vector_waited(sim, engine, ops))
        for ev in evs:
            yield ev

    total_bytes = 100 * 10 * 4096
    sim.spawn(submitter(sim))
    sim.run()
    gbps = total_bytes * 8 / (sim.now * 1e3)  # bytes over us -> Gbit/s
    assert gbps <= DmaParams().pcie_bandwidth_gbps * 1.01


def test_dma_latency_stats_recorded():
    sim = Simulator()
    engine = DmaEngine(sim)

    def proc(sim):
        yield waited(sim, engine.read, 64)
        yield waited(sim, engine.write, 64)

    sim.spawn(proc(sim))
    sim.run()
    assert engine.read_latency.count == 1
    assert engine.write_latency.count == 1
    assert engine.read_latency.mean > engine.write_latency.mean
