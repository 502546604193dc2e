"""Tests for the NIC runtime (async DMA, coalescing, the pending
table), message sizing, and configuration ladders."""

import pytest

from repro.core.config import (
    XenicConfig,
    ablation_ladder_latency,
    ablation_ladder_throughput,
)
from repro.core.messages import (
    COMMIT,
    EXEC_SHIP,
    EXECUTE,
    LOG,
    UNLOCK,
    VALIDATE,
    Request,
    Response,
    request_size,
    response_size,
)
from repro.core.nic_runtime import NicRuntime, PendingTable
from repro.core.txn import Transaction, TxnSpec, TxnStatus, make_txn_id
from repro.hw import Fabric, SmartNic
from repro.hw.params import NIC_PER_KEY_US
from repro.sim import Simulator


def make_runtime(**flags):
    sim = Simulator()
    fabric = Fabric(sim)
    nic = SmartNic(sim, fabric, 0)
    nic.set_handler(lambda m: None)
    runtime = NicRuntime(sim, nic, XenicConfig(**flags))
    return sim, nic, runtime


# ---------------------------------------------------------------------------
# PendingTable
# ---------------------------------------------------------------------------


def test_pending_expect_resolve():
    table = PendingTable()
    got = []
    table.expect("a", got.append)
    assert got == []
    assert table.resolve("a", 42)
    assert got == [42]
    assert not table.resolve("a", 1)  # already gone
    assert got == [42]


def test_pending_duplicate_key_rejected():
    table = PendingTable()
    table.expect("x", lambda _v: None)
    with pytest.raises(RuntimeError):
        table.expect("x", lambda _v: None)


def test_pending_count_future():
    table = PendingTable()
    got = []
    table.expect_count("acks", got.append, 3)
    table.resolve_one("acks", "a")
    table.resolve_one("acks", "b")
    assert got == []
    table.resolve_one("acks", "c")
    assert got == [["a", "b", "c"]]


def test_pending_count_zero_fires_immediately():
    table = PendingTable()
    got = []
    table.expect_count("none", got.append, 0)
    assert got == [[]]


@pytest.mark.parametrize("early, n", [(0, 2), (1, 2), (2, 2), (0, 0)])
def test_pending_open_count_includes_early_deliveries(early, n):
    """A count left open collects deliveries until ``set_count`` fixes
    it; the ones that raced ahead count toward it."""
    table = PendingTable()
    got = []
    table.expect_count("acks", got.append)
    for i in range(early):
        assert table.resolve_one("acks", i)
    assert got == []
    table.set_count("acks", n)
    for i in range(early, n):
        assert got == []
        assert table.resolve_one("acks", i)
    assert got == [list(range(n))]
    assert not table.resolve_one("acks", "late") and len(table) == 0


def test_pending_cancel():
    table = PendingTable()
    table.expect("gone", lambda _v: None)
    assert table.cancel("gone")
    assert not table.cancel("gone")
    assert not table.resolve("gone")


# ---------------------------------------------------------------------------
# NicRuntime DMA paths
# ---------------------------------------------------------------------------


def test_async_dma_vectors_accumulate():
    sim, nic, runtime = make_runtime(async_dma=True)

    def proc():
        evs = [sim.event() for _ in range(20)]
        for ev in evs:
            runtime.dma_read(64, ev.succeed)
        for ev in evs:
            yield ev

    sim.spawn(proc(), name="p")
    sim.run()
    assert runtime.dma_reads == 20
    # 15-op vector + burst-flushed remainder: far fewer submissions
    assert nic.dma.vectors_submitted <= 3
    assert nic.dma.vector_sizes.max == 15


def test_blocking_dma_one_submission_each():
    sim, nic, runtime = make_runtime(async_dma=False)

    def proc():
        for _ in range(5):
            read = sim.event()
            runtime.dma_read(64, read.succeed)
            yield read

    sim.spawn(proc(), name="p")
    sim.run()
    assert nic.dma.vectors_submitted == 5
    assert nic.dma.vector_sizes.max == 1


def test_blocking_dma_occupies_a_core():
    sim, nic, runtime = make_runtime(async_dma=False)

    def proc():
        read = sim.event()
        runtime.dma_read(64, read.succeed)
        yield read

    sim.spawn(proc(), name="p")
    sim.run()
    assert nic.cores.busy_us > 0.5  # core spun for the DMA duration


def test_log_append_coalesces_to_one_dma_op():
    sim, nic, runtime = make_runtime(async_dma=True)

    def proc():
        evs = [sim.event() for _ in range(10)]
        for ev in evs:
            runtime.dma_log_append(100, ev.succeed)
        for ev in evs:
            yield ev

    sim.spawn(proc(), name="p")
    sim.run()
    assert runtime.log_appends == 10
    assert runtime.log_flushes <= 2
    # coalesced: the engine saw far fewer ops than appends
    assert nic.dma.ops_submitted <= 2


def test_log_append_flushes_at_size_threshold():
    sim, nic, runtime = make_runtime(async_dma=True)

    def proc():
        evs = [sim.event() for _ in range(6)]
        for ev in evs:
            runtime.dma_log_append(3000, ev.succeed)  # 18 KB in all
        for ev in evs:
            yield ev

    sim.spawn(proc(), name="p")
    sim.run()
    assert runtime.log_flushes >= 2  # crossed the 8 KB threshold twice


def test_log_append_blocking_mode_per_record():
    sim, nic, runtime = make_runtime(async_dma=False)

    def proc():
        for _ in range(4):
            appended = sim.event()
            runtime.dma_log_append(100, appended.succeed)
            yield appended

    sim.spawn(proc(), name="p")
    sim.run()
    assert nic.dma.ops_submitted == 4


def test_handle_cost_scales_with_keys():
    """An inbound message's NIC-core charge grows with the keys it
    carries: handling ten keys takes longer than handling the message."""
    from repro.core import XenicCluster

    sim = Simulator()
    proto = XenicCluster(sim, 1).protocols[0]
    cores = proto.node.nic.cores
    took = []
    for n_keys in (0, 10):
        (wall,) = proto._msg_with_keys(n_keys)
        start = sim.now
        cores.run_wall_then(wall, lambda _arg, t=start: took.append(
            sim.now - t))
        sim.run()
    assert took[0] == pytest.approx(proto.runtime.msg_handle_us)
    assert took[1] - took[0] == pytest.approx(
        10 * NIC_PER_KEY_US)


def test_aggregation_lowers_message_handle_cost():
    _, _, agg = make_runtime(ethernet_aggregation=True)
    _, _, noagg = make_runtime(ethernet_aggregation=False)
    assert agg.msg_handle_us < noagg.msg_handle_us


# ---------------------------------------------------------------------------
# messages
# ---------------------------------------------------------------------------


_SPEC = TxnSpec([1, 2, 4], [3], external_state_bytes=40, write_bytes=32)

# Each kind as the protocol builds it, with its wire bytes at a 64-byte
# object size: header 18, 10 per key, 6 per version, 10 + value bytes
# per written value, 10 + 6 + 64 per pre-read pair, and a shipped spec's
# external state + 8.
REQUEST_BYTES = [
    ("execute_inline",
     Request(EXECUTE, 1, 0, 0, read_keys=[1, 2], write_keys=[3],
             versions={"inline": 1}), 54),
    ("execute_ablation_read", Request(EXECUTE, 1, 0, 0, read_keys=[1]), 28),
    ("validate", Request(VALIDATE, 1, 0, 0, versions={1: 3, 2: 5}), 30),
    ("log_value_bytes",
     Request(LOG, 1, 0, 0, write_values={1: "a", 2: "b"},
             versions={1: 2, 2: 0}, reply_to=2, value_bytes=32), 114),
    ("log_full_values",
     Request(LOG, 1, 0, 0, write_values={1: "a"}, versions={1: 2}), 98),
    ("commit", Request(COMMIT, 1, 0, 0, write_values={1: "a", 2: "b"},
                       value_bytes=32), 102),
    ("commit_multihop",
     Request(COMMIT, 1, 0, 0, read_keys=[4, 5], write_values={1: "a"},
             value_bytes=32), 80),
    ("unlock", Request(UNLOCK, 1, 0, 0, write_keys=[1, 2, 3]), 48),
    ("exec_ship",
     Request(EXEC_SHIP, 1, 0, 0, read_keys=[1, 2], write_keys=[3],
             spec=_SPEC, pre_read={4: ("v", 1), 3: (None, 2)}, reply_to=0),
     256),
]

RESPONSE_BYTES = [
    ("execute_empty", Response(EXECUTE, 1, 0, True), 10),
    ("execute",
     Response(EXECUTE, 1, 0, True, read_values={1: ("v", 0), 2: ("w", 1)},
              versions={3: 4}), 176),
    ("execute_abort",
     Response(EXECUTE, 1, 0, False, reason="lock-conflict"), 10),
    ("validate_ack", Response(VALIDATE, 1, 0, True), 10),
    ("validate_nack",
     Response(VALIDATE, 1, 0, False, reason="version-changed"), 10),
    ("log_ack", Response(LOG, 1, 0, True), 10),
    ("commit_ack", Response(COMMIT, 1, 0, True), 10),
    ("unlock_ack", Response(UNLOCK, 1, 0, True), 10),
    ("exec_ship",
     Response(EXEC_SHIP, 1, 0, True, read_values={1: ("v", 0)},
              write_values={3: "x", 4: "y"}), 238),
    ("exec_ship_abort",
     Response(EXEC_SHIP, 1, 0, False, reason="ship-validate"), 10),
]


@pytest.mark.parametrize("req,nbytes", [c[1:] for c in REQUEST_BYTES],
                         ids=[c[0] for c in REQUEST_BYTES])
def test_request_size_counts_keys_and_values(req, nbytes):
    assert request_size(req, 64) == nbytes


@pytest.mark.parametrize("resp,nbytes", [c[1:] for c in RESPONSE_BYTES],
                         ids=[c[0] for c in RESPONSE_BYTES])
def test_response_size_counts_payloads(resp, nbytes):
    assert response_size(resp, 64) == nbytes


# ---------------------------------------------------------------------------
# txn helpers and config
# ---------------------------------------------------------------------------


def test_txn_id_packs_node():
    txn_id = make_txn_id(5, 1234)
    assert txn_id & 0xFFF == 5
    assert make_txn_id(6, 1234) != txn_id != make_txn_id(5, 1235)


def test_txn_default_logic_and_retry_reset():
    spec = TxnSpec(read_keys=[1], write_keys=[2])
    txn = Transaction(make_txn_id(0, 1), 0, spec)
    txn.read_values[1] = ("v", 3)
    out = txn.run_logic()
    assert set(out) == {2}
    txn.record_lock(0, 2)
    txn.reset_for_retry()
    assert txn.attempts == 2
    assert not txn.read_values and not txn.locked
    assert txn.status is TxnStatus.PENDING


def test_spec_all_keys_dedupes_in_order():
    spec = TxnSpec(read_keys=[3, 1], write_keys=[1, 2])
    assert spec.all_keys() == [3, 1, 2]


def test_ablation_ladders_shape():
    tladder = ablation_ladder_throughput()
    assert [l for l, _ in tladder] == [
        "Xenic baseline", "+Smart remote ops", "+Eth aggregation", "+Async DMA"
    ]
    assert not tladder[0][1].smart_remote_ops
    assert tladder[-1][1].async_dma
    # throughput ladder never enables the latency features
    assert not tladder[-1][1].nic_execution

    lladder = ablation_ladder_latency()
    assert lladder[0][1].async_dma  # latency ladder keeps async DMA on
    assert lladder[-1][1].multihop_occ


def test_config_with_flags_immutable():
    base = XenicConfig()
    derived = base.with_flags(nic_execution=False)
    assert base.nic_execution and not derived.nic_execution
