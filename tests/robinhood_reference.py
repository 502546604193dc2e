"""The Robinhood table's structural invariants, as the tests check them;
no model reads them, so they live here, not in ``repro``."""

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
