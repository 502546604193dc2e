"""Tests for the Robinhood hash table, including property-based checks of
the structural invariants and the DMA-consistent swap ordering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import RobinhoodTable, VersionedObject

from .robinhood_reference import check_invariants, insert_steps


def make_table(capacity=64, dm=8, segment_size=8):
    return RobinhoodTable(capacity, dm=dm, segment_size=segment_size)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_capacity_must_be_multiple_of_segment():
    with pytest.raises(ValueError):
        RobinhoodTable(65, dm=8, segment_size=8)


def test_dm_validation():
    with pytest.raises(ValueError):
        RobinhoodTable(64, dm=0)


def test_unlimited_table_has_huge_dm():
    t = RobinhoodTable.unlimited(64)
    assert t.dm > 1 << 20


# ---------------------------------------------------------------------------
# basic operations
# ---------------------------------------------------------------------------


def test_insert_lookup_roundtrip():
    t = make_table()
    t.insert(42)
    res = t.lookup(42)
    assert res.found and not res.in_overflow
    assert res.displacement is not None and res.displacement >= 0


def test_duplicate_insert_rejected():
    t = make_table()
    t.insert(1)
    with pytest.raises(KeyError):
        t.insert(1)


def test_lookup_missing_key():
    t = make_table()
    t.insert(1)
    assert not t.lookup(999).found


def test_insert_stores_object():
    t = make_table()
    obj = VersionedObject(5, value="hello", size=32)
    t.insert(5, obj)
    assert t.get_object(5) is obj
    assert t.get_object(6) is None


def test_delete_removes_key():
    t = make_table()
    for k in range(20):
        t.insert(k)
    t.delete(7)
    assert not t.lookup(7).found
    assert 7 not in t
    with pytest.raises(KeyError):
        t.delete(7)


def test_delete_backward_shift_keeps_others_findable():
    t = make_table(capacity=32, dm=8)
    keys = list(range(100, 125))
    for k in keys:
        t.insert(k)
    t.delete(keys[3])
    for k in keys:
        if k != keys[3]:
            assert t.lookup(k).found, "lost key %d after delete" % k
    check_invariants(t)


def test_displacement_limit_sends_to_overflow():
    # Tiny Dm forces overflow at modest occupancy.
    t = make_table(capacity=64, dm=2, segment_size=8)
    for k in range(48):
        t.insert(k)
    assert t.overflow_count > 0
    # every key still findable
    for k in range(48):
        assert t.lookup(k).found
    check_invariants(t)


def test_overflow_lookup_flagged():
    t = make_table(capacity=64, dm=2, segment_size=8)
    for k in range(48):
        t.insert(k)
    overflow_keys = [k for k in range(48) if t.lookup(k).in_overflow]
    assert overflow_keys
    for k in overflow_keys:
        res = t.lookup(k)
        assert res.found and res.slot is None


def test_occupancy_and_len():
    t = make_table(capacity=64)
    for k in range(32):
        t.insert(k)
    assert len(t) == 32
    assert t.occupancy == pytest.approx(0.5)


def test_full_table_raises():
    t = RobinhoodTable.unlimited(8, segment_size=8)
    for k in range(8):
        t.insert(k)
    with pytest.raises(RuntimeError):
        t.insert(100)


def test_segment_max_displacement_tracks_inserts():
    t = make_table(capacity=64, dm=8)
    assert all(
        t.segment_max_displacement(s) == 0 for s in range(t.n_segments)
    )
    for k in range(57):  # ~89% occupancy
        t.insert(k)
    # hints must be an upper bound on every key's displacement
    for k in range(57):
        res = t.lookup(k)
        if res.in_overflow:
            continue
        seg = t.segment_of_key(k)
        assert res.displacement <= t.segment_max_displacement(seg)


def test_displacement_never_exceeds_dm():
    t = make_table(capacity=256, dm=4, segment_size=8)
    for k in range(230):
        t.insert(k)
    check_invariants(t)
    for k in range(230):
        res = t.lookup(k)
        assert res.found
        if not res.in_overflow:
            assert res.displacement < 4 or res.displacement == 0


# ---------------------------------------------------------------------------
# property-based invariants
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=0, max_value=10**9), unique=True,
                  min_size=1, max_size=100),
    dm=st.sampled_from([2, 4, 8, 16]),
)
def test_property_inserts_preserve_invariants(keys, dm):
    t = RobinhoodTable(128, dm=dm, segment_size=8)
    for k in keys:
        t.insert(k)
    check_invariants(t)
    for k in keys:
        assert t.lookup(k).found


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=0, max_value=10**9), unique=True,
                  min_size=4, max_size=80),
    data=st.data(),
)
def test_property_mixed_insert_delete(keys, data):
    t = RobinhoodTable(128, dm=8, segment_size=8)
    live = set()
    for k in keys:
        t.insert(k)
        live.add(k)
        if len(live) > 2 and data.draw(st.booleans()):
            victim = data.draw(st.sampled_from(sorted(live)))
            t.delete(victim)
            live.remove(victim)
    check_invariants(t)
    for k in keys:
        assert t.lookup(k).found == (k in live)


@settings(max_examples=25, deadline=None)
@given(
    existing=st.lists(st.integers(min_value=0, max_value=10**9), unique=True,
                      min_size=10, max_size=90),
)
def test_property_dma_consistent_swapping(existing):
    """§4.1.2: while an insertion's swap chain is being applied, a
    concurrent DMA probe-scan must find every pre-existing key after
    every atomic step."""
    t = RobinhoodTable(128, dm=8, segment_size=8)
    unique = list(dict.fromkeys(existing))
    new_key = max(unique) + 1
    for k in unique:
        t.insert(k)
    pre_existing = list(unique)
    for _step in insert_steps(t, new_key):
        for k in pre_existing:
            assert t.lookup(k).found, (
                "concurrent reader lost key %d mid-insertion" % k
            )
    # after completion the new key is also findable
    assert t.lookup(new_key).found
    check_invariants(t)


def test_robinhood_reduces_probe_variance_vs_fifo_order():
    """The displacement-balancing property: max probe length stays small
    at high occupancy."""
    t = RobinhoodTable(1024, dm=16, segment_size=8, hash_salt=7)
    n = int(1024 * 0.9)
    for k in range(n):
        t.insert(k)
    probes = [t.lookup(k).probe_len for k in range(n) if not t.lookup(k).in_overflow]
    mean = sum(probes) / len(probes)
    assert mean < 6.0
    assert max(probes) <= 17
