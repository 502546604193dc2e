"""Tests for the B+ tree and the host-memory log."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import BPlusTree, HostLog, LogRecord, record_size_bytes


# ---------------------------------------------------------------------------
# B+ tree
# ---------------------------------------------------------------------------


def test_btree_insert_get():
    t = BPlusTree(order=4)
    t.insert(5, "five")
    assert t.get(5) == "five"
    assert t.get(6) is None
    assert t.get(6, "dflt") == "dflt"


def test_btree_overwrite():
    t = BPlusTree(order=4)
    t.insert(1, "a")
    t.insert(1, "b")
    assert t.get(1) == "b"
    assert len(t) == 1


def test_btree_splits_grow_height():
    t = BPlusTree(order=4)
    for k in range(100):
        t.insert(k, k)
    assert t.height > 1
    for k in range(100):
        assert t.get(k) == k


def test_btree_range_scan_ordered():
    t = BPlusTree(order=4)
    import random

    keys = list(range(0, 200, 2))
    random.Random(1).shuffle(keys)
    for k in keys:
        t.insert(k, k * 10)
    got = list(t.range(50, 70))
    assert got == [(k, k * 10) for k in range(50, 70, 2)]


def test_btree_range_empty():
    t = BPlusTree()
    assert list(t.range(0, 100)) == []


def test_btree_delete():
    t = BPlusTree(order=4)
    for k in range(50):
        t.insert(k, k)
    assert t.delete(25)
    assert t.get(25) is None
    assert not t.delete(25)
    assert len(t) == 49


def test_btree_min_key_and_items():
    t = BPlusTree(order=4)
    for k in (5, 3, 9, 1):
        t.insert(k, str(k))
    assert [k for k, _ in t.items()] == [1, 3, 5, 9]


def test_btree_order_validation():
    with pytest.raises(ValueError):
        BPlusTree(order=2)


@settings(max_examples=30, deadline=None)
@given(kv=st.dictionaries(st.integers(), st.integers(), min_size=1, max_size=300))
def test_btree_property_matches_dict(kv):
    t = BPlusTree(order=6)
    for k, v in kv.items():
        t.insert(k, v)
    assert len(t) == len(kv)
    for k, v in kv.items():
        assert t.get(k) == v
    assert [k for k, _ in t.items()] == sorted(kv)


@settings(max_examples=20, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=0, max_value=10**6), unique=True,
                  min_size=5, max_size=200),
    data=st.data(),
)
def test_btree_property_delete_consistency(keys, data):
    t = BPlusTree(order=5)
    for k in keys:
        t.insert(k, k)
    victims = data.draw(st.lists(st.sampled_from(keys), unique=True, max_size=len(keys)))
    for v in victims:
        assert t.delete(v)
    live = sorted(set(keys) - set(victims))
    assert [k for k, _ in t.items()] == live


# ---------------------------------------------------------------------------
# HostLog
# ---------------------------------------------------------------------------


def make_record(txn_id=1, kind="log", n_writes=2):
    return LogRecord(txn_id, kind, shard=0,
                     writes=[(k, "v", 1) for k in range(n_writes)])


def test_log_append_poll_ack_cycle():
    log = HostLog(capacity_records=8)
    rec = make_record()
    assert log.append(rec)
    assert log.pending == 1
    batch = log.poll()
    assert batch == [rec]
    assert log.pending == 0
    log.ack(rec)
    assert log.acked == 1
    assert log.in_log == 0


def test_log_backpressure_when_full():
    log = HostLog(capacity_records=2)
    r1, r2, r3 = make_record(1), make_record(2), make_record(3)
    assert log.append(r1)
    assert log.append(r2)
    assert not log.append(r3)  # full
    log.poll()
    log.ack(r1)
    assert log.append(r3)  # space reclaimed


def test_log_ack_handler_fires():
    log = HostLog()
    acked = []
    log.set_ack_handler(lambda rec: acked.append(rec.txn_id))
    rec = make_record(txn_id=42)
    log.append(rec)
    log.poll()
    log.ack(rec)
    assert acked == [42]


def test_log_double_ack_raises():
    log = HostLog()
    rec = make_record()
    log.append(rec)
    log.poll()
    log.ack(rec)
    with pytest.raises(RuntimeError):
        log.ack(rec)


def test_log_out_of_order_ack_reclaims_prefix_only():
    log = HostLog()
    r1, r2 = make_record(1), make_record(2)
    log.append(r1)
    log.append(r2)
    log.poll(max_records=2)
    log.ack(r2)
    assert log.in_log == 2  # r1 still holds the prefix
    log.ack(r1)
    assert log.in_log == 0


def test_log_poll_batch_limit():
    log = HostLog()
    recs = [make_record(i) for i in range(10)]
    for r in recs:
        log.append(r)
    assert len(log.poll(max_records=4)) == 4
    assert len(log.poll(max_records=4)) == 4
    assert len(log.poll(max_records=4)) == 2


def test_record_size_accounting():
    assert record_size_bytes(0, 64) == 24
    assert record_size_bytes(3, 64) == 24 + 3 * 80


def test_log_capacity_validation():
    with pytest.raises(ValueError):
        HostLog(capacity_records=0)
