"""Tests for the host-memory log."""

import pytest

from repro.store import HostLog, LogRecord, record_size_bytes


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
