"""The Robinhood table's structural invariants, as the tests check them,
and its insertion one atomic slot write at a time; no model reads
either, so they live here, not in ``repro``."""

from typing import Iterator

from repro.store.object import VersionedObject
from repro.store.robinhood import UNLIMITED, RobinhoodTable


def check_invariants(table: RobinhoodTable) -> None:
    """Verify structural invariants; raises AssertionError on violation."""
    seen = set()
    for pos, key in enumerate(table._slots):
        if key is None:
            continue
        assert key in table._objects, "slot key %d missing object" % key
        assert key not in seen, "key %d duplicated in table" % key
        seen.add(key)
        d = table._disp(key, pos)
        if table.dm != UNLIMITED:
            assert d < table.dm or d == 0, (
                "key %d displacement %d exceeds Dm=%d" % (key, d, table.dm)
            )
        # no empty gap between home and the key (probe reachability)
        assert table._path_full(table.home(key), d), (
            "key %d unreachable: gap before slot %d" % (key, pos)
        )
    for seg, bucket in table._overflow.items():
        for key in bucket:
            assert key in table._objects
            assert key not in seen, "key %d in table and overflow" % key
            seen.add(key)
            assert table.segment_of_key(key) == seg
    assert len(seen) == table.size == len(table._objects)


def insert_steps(table: RobinhoodTable, key: int) -> Iterator[None]:
    """Generator form of :meth:`RobinhoodTable.insert` yielding after
    each atomic slot write — used by the DMA-consistency property test
    to interleave a concurrent reader between steps."""
    if key in table._objects:
        raise KeyError("duplicate key %d" % key)
    chain, overflowed = table._plan_insert(key, table.home(key))
    table._objects[key] = VersionedObject(key)
    table.size += 1
    seg_size = table.segment_size
    if overflowed is not None:
        over_key, over_home = overflowed
        table._overflow.setdefault(over_home // seg_size, []).append(over_key)
        table._seg_max_disp[over_home // seg_size] = None
        yield
    for slot, k, k_home in reversed(chain):
        table._slots[slot] = k
        table._seg_max_disp[k_home // seg_size] = None
        yield
