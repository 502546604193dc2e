"""The Robinhood table's structural invariants, as the tests check them,
and its insertion one atomic slot write at a time; no model reads
either, so they live here, not in ``repro``."""

from typing import Iterator

from repro.store.object import VersionedObject
from repro.store.robinhood import UNLIMITED, RobinhoodTable


def _disp(table: RobinhoodTable, key: int, pos: int) -> int:
    """``key``'s displacement at ``pos``, computed from its hashed home."""
    return (pos - table.home(key)) % table.capacity


def check_invariants(table: RobinhoodTable) -> None:
    """Verify structural invariants, building the layout first if a
    load left it unbuilt; raises AssertionError on violation."""
    if table._slots is None:
        table._build_layout()
    seen = set()
    assert len(table._disps) == len(table._slots) == table.capacity
    for pos, key in enumerate(table._slots):
        if key is None:
            assert table._disps[pos] == 0, (
                "free slot %d holds displacement %d" % (pos, table._disps[pos])
            )
            continue
        assert key in table._objects, "slot key %d missing object" % key
        assert key not in seen, "key %d duplicated in table" % key
        seen.add(key)
        d = _disp(table, key, pos)
        assert table._disps[pos] == d, (
            "slot %d stores displacement %d, key %d is %d from home"
            % (pos, table._disps[pos], key, d)
        )
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
    each atomic slot write (key and displacement) — used by the
    DMA-consistency property test to interleave a concurrent reader
    between steps."""
    if key in table._objects:
        raise KeyError("duplicate key %d" % key)
    if table._slots is None:
        table._build_layout()
    chain, overflowed = table._plan_insert(key, table.home(key))
    table._objects[key] = VersionedObject(key)
    table.size += 1
    cap, seg_size = table.capacity, table.segment_size
    if overflowed is not None:
        over_key, over_home = overflowed
        table._overflow.setdefault(over_home // seg_size, []).append(over_key)
        table._seg_max_disp[over_home // seg_size] = None
        yield
    for slot, k, d in reversed(chain):
        table._slots[slot] = k
        table._disps[slot] = d
        table._seg_max_disp[(slot - d) % cap // seg_size] = None
        yield
