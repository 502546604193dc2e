"""Tests for the SmartNIC caching index: locks, versions, cache pinning,
and DMA miss-cost accounting."""

import pytest

from repro.store import NicIndex, RobinhoodTable, VersionedObject


def make_pair(capacity=256, dm=8, cache=8, value_size=64):
    table = RobinhoodTable(capacity, dm=dm, segment_size=8)
    index = NicIndex(table, cache_capacity=cache, value_size=value_size)
    return table, index


def load(table, n, value_size=64):
    for k in range(n):
        table.insert(k, VersionedObject(k, value="v%d" % k, size=value_size))


# ---------------------------------------------------------------------------
# locks and versions
# ---------------------------------------------------------------------------


def test_lock_acquire_release():
    table, index = make_pair()
    load(table, 10)
    assert index.try_lock(3, txn_id=100)
    assert index.is_locked(3)
    assert not index.is_locked(3, txn_id=100)  # own lock doesn't block
    assert not index.try_lock(3, txn_id=200)
    index.unlock(3, txn_id=100)
    assert not index.is_locked(3)
    assert index.try_lock(3, txn_id=200)


def test_lock_reentrant_same_txn():
    table, index = make_pair()
    load(table, 5)
    assert index.try_lock(1, txn_id=7)
    assert index.try_lock(1, txn_id=7)


def test_unlock_wrong_owner_raises():
    table, index = make_pair()
    load(table, 5)
    index.try_lock(1, txn_id=7)
    with pytest.raises(RuntimeError):
        index.unlock(1, txn_id=8)


def test_unlock_if_held_releases_only_the_owners_lock():
    table, index = make_pair()
    load(table, 5)
    index.try_lock(1, txn_id=7)
    assert not index.unlock_if_held(1, txn_id=8)  # someone else's lock
    assert index.is_locked(1)
    assert index.unlock_if_held(1, txn_id=7)
    assert not index.is_locked(1)
    assert not index.unlock_if_held(1, txn_id=7)  # already released
    assert not index.unlock_if_held(4, txn_id=7)  # never locked


def test_version_reads_host_when_no_meta():
    table, index = make_pair()
    load(table, 5)
    table.get_object(2).version = 9
    assert index.read_version(2) == 9


def test_commit_bumps_nic_version_ahead_of_host():
    table, index = make_pair()
    load(table, 5)
    v = index.apply_commit(2, "new-value")
    assert v == 1
    assert index.read_version(2) == 1
    assert table.get_object(2).version == 0  # host lags until worker applies
    hit, value = index.cache_lookup(2)
    assert hit and value == "new-value"


def test_metadata_purged_after_unlock_when_consistent():
    table, index = make_pair()
    load(table, 5)
    index.try_lock(4, txn_id=1)
    index.unlock(4, txn_id=1)
    assert index.meta_for(4) is None  # purged: host is consistent


def test_metadata_retained_while_host_lags():
    table, index = make_pair()
    load(table, 5)
    index.apply_commit(3, "x")
    index.log_acked(3)
    # host version still behind -> metadata must survive
    assert index.meta_for(3) is not None
    # after the host applies, purge happens on the next transition
    table.get_object(3).version = 1
    index.try_lock(3, txn_id=1)
    index.unlock(3, txn_id=1)
    # cache entry still holds the value (unpinned), meta kept alongside
    assert index.cache_contains(3)


# ---------------------------------------------------------------------------
# cache behaviour
# ---------------------------------------------------------------------------


def test_cache_hit_miss_accounting():
    table, index = make_pair()
    load(table, 10)
    hit, _ = index.cache_lookup(1)
    assert not hit
    index.install_cache(1, "v1")
    hit, val = index.cache_lookup(1)
    assert hit and val == "v1"
    assert index.hits == 1 and index.misses == 1


def test_cache_lru_eviction():
    table, index = make_pair(cache=3)
    load(table, 10)
    for k in (1, 2, 3):
        index.install_cache(k, "v%d" % k)
    index.cache_lookup(1)  # make 1 most-recent
    index.install_cache(4, "v4")  # evicts LRU (2)
    assert index.cache_contains(1)
    assert not index.cache_contains(2)
    assert index.evictions == 1


def test_pinned_entries_not_evicted():
    table, index = make_pair(cache=2)
    load(table, 10)
    index.apply_commit(1, "pinned")  # install + pin
    index.install_cache(2, "v2")
    index.install_cache(3, "v3")  # must evict 2, not pinned 1
    assert index.cache_contains(1)
    assert not index.cache_contains(2)


def test_all_pinned_allows_over_capacity():
    table, index = make_pair(cache=2)
    load(table, 10)
    index.apply_commit(1, "a")
    index.apply_commit(2, "b")
    index.apply_commit(3, "c")
    assert index.cache_size == 3  # over capacity rather than stale reads


def test_log_ack_unpins():
    table, index = make_pair(cache=2)
    load(table, 10)
    index.apply_commit(1, "a")
    assert index.is_pinned(1)
    index.log_acked(1)
    assert not index.is_pinned(1)


def test_pin_uncached_raises():
    table, index = make_pair()
    load(table, 5)
    with pytest.raises(KeyError):
        index.pin(99)


# ---------------------------------------------------------------------------
# DMA miss-cost accounting
# ---------------------------------------------------------------------------


def test_miss_cost_common_case_single_roundtrip():
    table, index = make_pair(capacity=256, dm=8)
    load(table, 128)  # 50% occupancy: displacements tiny
    costs = [index.miss_cost(k) for k in range(128)]
    single = [c for c in costs if c.roundtrips == 1]
    assert len(single) / len(costs) > 0.9
    for c in costs:
        assert c.found
        assert c.objects_read >= 1
        assert c.first_read_bytes > 0


def test_miss_cost_bounded_by_dm():
    table, index = make_pair(capacity=256, dm=8)
    load(table, 230)  # 90% occupancy
    for k in range(230):
        c = index.miss_cost(k)
        assert c.objects_read <= (8 + 1) + table.overflow_bucket_len(
            table.segment_of_key(k)
        )


def test_miss_cost_overflow_needs_two_roundtrips():
    table, index = make_pair(capacity=64, dm=2)
    load(table, 48)
    overflow_keys = [k for k in range(48) if table.lookup(k).in_overflow]
    assert overflow_keys
    for k in overflow_keys:
        c = index.miss_cost(k)
        assert c.roundtrips == 2
        assert c.second_read_bytes > 0


def test_miss_cost_large_object_pointer_chase():
    table, index = make_pair(capacity=256, dm=8, value_size=64)
    table.insert(1, VersionedObject(1, value="big", size=660))  # TPC-C max
    c = index.miss_cost(1)
    assert c.extra_object_bytes == 660
    # pointer slots are cheaper than value slots on the region read
    assert c.first_read_bytes < (8 + 2) * (64 + 16)


def test_miss_cost_absent_key():
    table, index = make_pair()
    load(table, 10)
    c = index.miss_cost(999)
    assert not c.found


def test_hit_rate_property():
    table, index = make_pair(cache=100)
    load(table, 50)
    for k in range(50):
        index.install_cache(k, k)
    for k in range(50):
        index.cache_lookup(k)
    assert index.hit_rate > 0.4


def test_stale_location_hint_falls_back_to_second_read():
    """§4.1.3: insertions can move a key beyond its learned hint; the
    lookup pays a second adjacent read instead of failing."""
    table, index = make_pair(capacity=256, dm=8)
    load(table, 180)
    # learn hints for all current keys
    for k in range(180):
        index.miss_cost(k)
    # insert more keys: displacements shift
    for k in range(1000, 1040):
        table.insert(k, VersionedObject(k, value="n", size=64))
    moved = 0
    for k in range(180):
        res = table.lookup(k)
        if res.in_overflow or res.displacement is None:
            continue
        hint = index._loc_hints.get(k)
        if hint is not None and res.displacement > hint:
            cost = index.miss_cost(k)
            assert cost.roundtrips == 2
            assert cost.second_read_bytes > 0
            moved += 1
            # the hint was re-learned: next lookup is single-roundtrip
            assert index.miss_cost(k).roundtrips == 1
    # with 40 inserts at ~80% occupancy some keys must have moved
    assert moved >= 1


def test_hint_learning_shrinks_reads():
    table, index = make_pair(capacity=256, dm=8)
    load(table, 200)
    first = index.miss_cost(5)
    second = index.miss_cost(5)
    assert second.first_read_bytes <= first.first_read_bytes
