"""Host-memory transaction log and Robinhood worker drain (§4.2).

The NIC appends LOG / COMMIT records to a hugepage region of host memory
via DMA writes; host-side worker threads poll the log, apply write sets to
the primary/backup tables off the critical path, and acknowledge so the
NIC can reclaim log space and unpin cache entries (§4.2 steps 5-7).

The log is modeled as a bounded ring of records.  Space exhaustion (hosts
falling behind) back-pressures appends, which is a real behaviour worth
keeping: an undersized log or too few workers throttles commit throughput.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

__all__ = ["LogRecord", "HostLog"]

LOG_KIND_REPLICATE = "log"  # backup replication record
LOG_KIND_COMMIT = "commit"  # primary commit record

# Record framing bytes: txn id, kind, shard, count, checksum.
RECORD_HEADER_BYTES = 24
PER_WRITE_HEADER_BYTES = 16  # key + version per write-set element


class LogRecord:
    """One appended record (slotted: two per committed transaction on
    the hot path — a replication record per backup and a commit record)."""

    __slots__ = ("txn_id", "kind", "shard", "writes", "acked")

    def __init__(
        self,
        txn_id: int,
        kind: str,
        shard: int,
        writes: List[Tuple[int, object, int]],  # (key, value, version)
        acked: bool = False,
    ):
        self.txn_id = txn_id
        self.kind = kind
        self.shard = shard
        self.writes = writes
        self.acked = acked


def record_size_bytes(n_writes: int, value_size: int) -> int:
    """Wire/DMA size of a log record carrying ``n_writes`` values."""
    return RECORD_HEADER_BYTES + n_writes * (PER_WRITE_HEADER_BYTES + value_size)


class HostLog:
    """Bounded in-memory log with append/poll/ack."""

    def __init__(self, capacity_records: int = 1 << 16):
        if capacity_records < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity_records
        self._records: List[LogRecord] = []
        self._applied = 0  # index of next record to apply
        self._reclaimed = 0  # records dropped from the front
        # space held for appends whose bytes are still in flight
        self._reserved = 0
        self.appended = 0
        self.acked = 0
        self._on_ack: Optional[Callable[[LogRecord], None]] = None

    def set_ack_handler(self, fn: Callable[[LogRecord], None]) -> None:
        """Called for each record when the host acknowledges applying it
        (the NIC uses this to unpin cache entries)."""
        self._on_ack = fn

    @property
    def pending(self) -> int:
        """Records appended but not yet applied by workers."""
        return len(self._records) - (self._applied - self._reclaimed)

    @property
    def in_log(self) -> int:
        return len(self._records)

    @property
    def full(self) -> bool:
        """No space for one more record: reserved space counts as used."""
        return len(self._records) + self._reserved >= self.capacity

    def reserve(self) -> None:
        """Hold one record's space for an append whose DMA write is still
        in flight, so the log cannot fill before its bytes land.  The
        caller checks :attr:`full` first."""
        if self.full:
            raise RuntimeError("reserve on a full log")
        self._reserved += 1

    def append(self, record: LogRecord) -> bool:
        """NIC-side append, into reserved space when any is held;
        without a reservation it returns False when the log is full
        (back-pressure: the caller must retry after acks)."""
        if self._reserved:
            self._reserved -= 1
        elif self.full:
            return False
        self._records.append(record)
        self.appended += 1
        return True

    def poll(self, max_records: int = 16) -> List[LogRecord]:
        """Worker-side: fetch the next unapplied records."""
        start = self._applied - self._reclaimed
        batch = self._records[start : start + max_records]
        self._applied += len(batch)
        return batch

    def ack(self, record: LogRecord) -> None:
        """Worker finished applying ``record``; reclaim prefix space."""
        if record.acked:
            raise RuntimeError("double ack of txn %d record" % record.txn_id)
        record.acked = True
        self.acked += 1
        if self._on_ack is not None:
            self._on_ack(record)
        # reclaim the contiguous acked prefix
        while self._records and self._records[0].acked:
            self._records.pop(0)
            self._reclaimed += 1
