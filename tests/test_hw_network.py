"""Tests for the Ethernet/fabric/RDMA/PCIe hardware models."""

import pytest

from repro.hw import (
    CoreGroup,
    EthernetPort,
    Fabric,
    NetMessage,
    OffPathNic,
    PcieChannel,
    RdmaNic,
    SmartNic,
    XEON_GOLD_5218,
)
from repro.hw.params import (
    BLUEFIELD_OFFPATH,
    CX5_RDMA,
    EthernetParams,
    LIQUIDIO3,
    STINGRAY_OFFPATH,
    TESTBED,
)
from repro.sim import Simulator

from .waits import waited


def make_fabric_pair(aggregation=True):
    sim = Simulator()
    fabric = Fabric(sim)
    received = []
    p0 = EthernetPort(sim, fabric, 0, aggregation=aggregation)
    fabric.register(1, lambda msg: received.append((sim.now, msg)))
    return sim, fabric, p0, received


def test_ethernet_delivers_message():
    sim, fabric, p0, received = make_fabric_pair()
    p0.send(NetMessage(0, 1, "ping", 100))
    sim.run()
    assert len(received) == 1
    t, msg = received[0]
    assert msg.kind == "ping"
    assert t >= EthernetParams().propagation_us


def test_ethernet_rejects_loopback():
    sim, fabric, p0, _ = make_fabric_pair()
    with pytest.raises(ValueError):
        p0.send(NetMessage(0, 0, "self", 10))


def test_ethernet_aggregation_batches_same_destination():
    sim, fabric, p0, received = make_fabric_pair(aggregation=True)
    for _ in range(50):
        p0.send(NetMessage(0, 1, "m", 64))
    sim.run()
    assert len(received) == 50
    # far fewer wire packets than messages
    assert p0.packets_sent < 20
    assert p0.mean_batch > 2.0


def test_ethernet_no_aggregation_one_packet_per_message():
    sim, fabric, p0, received = make_fabric_pair(aggregation=False)
    for _ in range(50):
        p0.send(NetMessage(0, 1, "m", 64))
    sim.run()
    assert len(received) == 50
    assert p0.packets_sent == 50


def test_ethernet_aggregation_improves_small_message_rate():
    def run(aggregation):
        sim, fabric, p0, received = make_fabric_pair(aggregation=aggregation)
        for _ in range(2000):
            p0.send(NetMessage(0, 1, "w", 32))
        sim.run()
        last = max(t for t, _ in received)
        return 2000 / last

    assert run(True) > 3.0 * run(False)


def test_unbatched_rate_matches_measured_ceiling():
    """§3.4: unbatched small remote writes measure 9.0-10.4 Mops/s."""
    sim, fabric, p0, received = make_fabric_pair(aggregation=False)
    for _ in range(3000):
        p0.send(NetMessage(0, 1, "w", 64))
    sim.run()
    last = max(t for t, _ in received)
    rate = 3000 / last  # Mops/s
    assert 8.0 <= rate <= 11.0


def test_fabric_duplicate_registration_rejected():
    sim = Simulator()
    fabric = Fabric(sim)
    fabric.register(0, lambda m: None)
    with pytest.raises(ValueError):
        fabric.register(0, lambda m: None)


def test_fabric_unknown_destination_raises():
    sim = Simulator()
    fabric = Fabric(sim)
    with pytest.raises(KeyError):
        fabric.deliver(9, NetMessage(0, 9, "x", 1))


# ---------------------------------------------------------------------------
# RDMA
# ---------------------------------------------------------------------------


def rdma_pair():
    sim = Simulator()
    host0 = CoreGroup(sim, XEON_GOLD_5218, cores=4)
    host1 = CoreGroup(sim, XEON_GOLD_5218, cores=4)
    a = RdmaNic(sim, 0, host_cores=host0)
    b = RdmaNic(sim, 1, host_cores=host1)
    return sim, a, b


@pytest.mark.parametrize(
    "verb,expected",
    [("read", CX5_RDMA.read_rtt_us), ("write", CX5_RDMA.write_rtt_us),
     ("atomic", CX5_RDMA.atomic_rtt_us)],
)
def test_rdma_one_sided_unloaded_rtt(verb, expected):
    sim, a, b = rdma_pair()

    def proc(sim):
        yield waited(sim, getattr(a, verb), b, 256 if verb != "atomic" else 8)
        return sim.now

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.value == pytest.approx(expected, rel=0.15)


def test_rdma_rpc_unloaded_rtt():
    sim, a, b = rdma_pair()

    def proc(sim):
        yield waited(sim, a.rpc, b, 128, 128)
        return sim.now

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.value == pytest.approx(CX5_RDMA.rpc_rtt_us, rel=0.15)


def test_rdma_read_faster_than_rpc():
    sim, a, b = rdma_pair()

    def reader(sim):
        yield waited(sim, a.read, b, 256)
        return sim.now

    p = sim.spawn(reader(sim))
    sim.run()
    t_read = p.value

    sim2, a2, b2 = rdma_pair()

    def rpcer(sim):
        yield waited(sim, a2.rpc, b2, 256, 256)
        return sim.now

    p2 = sim2.spawn(rpcer(sim2))
    sim2.run()
    assert t_read < p2.value


def test_rdma_rpc_consumes_target_host_cores():
    sim, a, b = rdma_pair()

    def proc(sim):
        evs = [waited(sim, a.rpc, b, 64, 64) for _ in range(32)]
        for ev in evs:
            yield ev

    sim.spawn(proc(sim))
    sim.run()
    assert b.host_cores.jobs_executed == 32
    assert a.host_cores.jobs_executed == 0


def test_rdma_one_sided_bypasses_host_cpu():
    sim, a, b = rdma_pair()

    def proc(sim):
        yield waited(sim, a.read, b, 256)
        yield waited(sim, a.write, b, 256)

    sim.spawn(proc(sim))
    sim.run()
    assert b.host_cores.jobs_executed == 0


def test_rdma_ops_rate_ceiling():
    sim, a, b = rdma_pair()

    def proc(sim):
        evs = [waited(sim, a.read, b, 16) for _ in range(3000)]
        for ev in evs:
            yield ev

    sim.spawn(proc(sim))
    sim.run()
    rate = 3000 / sim.now
    # §3.4: 13.5-15.0 Mops/s ceiling; both endpoint pipes serialize, so the
    # pairwise rate lands at about half the per-NIC ceiling.
    assert rate <= CX5_RDMA.max_ops_per_us * 1.05
    assert rate > 4.0


def test_rdma_invalid_verb_rejected():
    sim, a, b = rdma_pair()
    with pytest.raises(ValueError):
        a.one_sided(b, "send", 8, None)


def test_rdma_rpc_without_host_cores_raises():
    sim = Simulator()
    a = RdmaNic(sim, 0)
    b = RdmaNic(sim, 1)
    with pytest.raises(RuntimeError):
        sim.spawn(iter([waited(sim, a.rpc, b, 8, 8)]))
        sim.run()


# ---------------------------------------------------------------------------
# PCIe channel and SmartNic assembly
# ---------------------------------------------------------------------------


def test_pcie_channel_roundtrip():
    sim = Simulator()
    got = {"host": [], "nic": []}
    chan = PcieChannel(
        sim,
        LIQUIDIO3,
        deliver_to_host=lambda p: got["host"].append((sim.now, p)),
        deliver_to_nic=lambda p: got["nic"].append((sim.now, p)),
    )
    chan.host_to_nic(256, "txn-state")
    sim.run()
    assert got["nic"][0][1] == "txn-state"
    assert got["nic"][0][0] >= LIQUIDIO3.pcie_crossing_us
    chan.nic_to_host(64, "result")
    sim.run()
    assert got["host"][0][1] == "result"


def test_node_pcie_channel_serializes_at_its_bundles_bandwidth():
    """A node's host <-> NIC channel reads the PCIe bandwidth of the
    hardware bundle the node is built with, not a fresh default."""
    import dataclasses

    from repro.core import XenicCluster, XenicConfig

    nbytes = 20000

    def arrival(hardware):
        sim = Simulator()
        node = XenicCluster(sim, 1, XenicConfig(hardware=hardware),
                            keys_per_shard=64).nodes[0]
        got = []
        node.pcie.set_handlers(lambda p: None, lambda p: got.append(sim.now))
        node.pcie.host_to_nic(nbytes, "state")
        sim.run()
        return got[0]

    nic = TESTBED.nic
    slow = dataclasses.replace(TESTBED, nic=dataclasses.replace(
        nic, dma=dataclasses.replace(nic.dma, pcie_bandwidth_gbps=8.0)))
    assert arrival(slow) - arrival(TESTBED) == pytest.approx(
        nbytes / (8.0 * 125.0)
        - nbytes / (nic.dma.pcie_bandwidth_gbps * 125.0))


def test_smartnic_routes_wire_messages_to_handler():
    sim = Simulator()
    fabric = Fabric(sim)
    handled = []
    nic0 = SmartNic(sim, fabric, 0)
    nic1 = SmartNic(sim, fabric, 1)
    nic1.set_handler(lambda msg: handled.append(msg.kind))
    nic0.set_handler(lambda msg: None)
    nic0.send(NetMessage(0, 1, "execute", 128))
    sim.run()
    assert handled == ["execute"]
    assert fabric.messages_delivered == 1


def test_smartnic_without_handler_raises():
    sim = Simulator()
    fabric = Fabric(sim)
    nic0 = SmartNic(sim, fabric, 0)
    nic1 = SmartNic(sim, fabric, 1)
    nic0.set_handler(lambda m: None)
    nic0.send(NetMessage(0, 1, "x", 10))
    with pytest.raises(RuntimeError):
        sim.run()


# ---------------------------------------------------------------------------
# Off-path NICs (§3.1)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("params", [BLUEFIELD_OFFPATH, STINGRAY_OFFPATH])
def test_offpath_soc_path_slower_than_direct(params):
    nic = OffPathNic(Simulator(), params)
    assert nic.offload_penalty_us() > 0
