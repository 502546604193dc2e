"""Bulk cluster loading builds each shard once: the primary table takes
every insert, blank backups are cloned from it.  The result must be the
state key-by-key loading reaches — slot for slot, chain for chain — and
the replicas must stay independent objects."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import SYSTEMS, BaselineCluster
from repro.core import XenicCluster, XenicConfig
from repro.sim import Simulator
from repro.store import ChainedTable, RobinhoodTable, VersionedObject

N_NODES = 3
KEYS = st.lists(st.integers(0, 1 << 40), unique=True, min_size=1, max_size=240)


def robinhood_state(t):
    return (
        list(t._slots),
        {seg: list(bucket) for seg, bucket in t._overflow.items()},
        t.size,
        [t.segment_max_displacement(seg) for seg in range(t.n_segments)],
        [(o.key, o.value, o.size, o.version, o.lock_owner)
         for o in t.objects()],
    )


def chained_state(t):
    chains = []
    for bucket in t._buckets:
        chain = []
        while bucket is not None:
            chain.append(list(bucket.keys))
            bucket = bucket.next
        chains.append(chain)
    return (
        chains, t.size, t.linked_buckets,
        [(o.key, o.value, o.size, o.version, o.lock_owner)
         for o in t.objects()],
    )


def table_state(t):
    return robinhood_state(t) if isinstance(t, RobinhoodTable) \
        else chained_state(t)


def cluster_state(cluster):
    return {(node.node_id, shard): table_state(table)
            for node in cluster.nodes for shard, table in node.tables.items()}


def items_of(keys):
    # two sizes and distinct values, so a mixed-up object would show
    return [(k, ("v", k), 32 if k % 3 else None) for k in keys]


def reference_load(cluster, items):
    """Key-by-key loading as it was before the bulk path: one insert per
    key per replica, primary first."""
    for key, value, size in items:
        shard = cluster.shard_of(key)
        for n in [shard] + cluster.backups_of(shard):
            cluster.nodes[n].tables[shard].insert(key, VersionedObject(
                key, value, cluster.value_size if size is None else size))


def fullest_shard(keys):
    return max(sum(1 for k in keys if k % N_NODES == s)
               for s in range(N_NODES))


def xenic_cluster(keys, dm, fill, rf):
    # sized so that the fullest shard's table reaches ``fill``
    config = XenicConfig(dm=dm, table_fill=fill, replication_factor=rf)
    return XenicCluster(Simulator(), N_NODES, config=config,
                        keys_per_shard=fullest_shard(keys), value_size=48)


def baseline_cluster(keys, rf, bucket_size):
    # sized for half the keys, so bucket chains grow links
    return BaselineCluster(
        Simulator(), N_NODES, SYSTEMS["drtmh"], host_threads=2,
        keys_per_shard=max(1, fullest_shard(keys) // 2), value_size=48,
        replication_factor=rf, bucket_size=bucket_size)


def load_in_mode(cluster, items, mode, split):
    if mode == "one_call":
        cluster.load_keys(iter(items))
    elif mode == "two_calls":  # the second lands on non-empty tables
        cluster.load_keys(items[:split])
        cluster.load_keys(items[split:])
    elif mode == "bulk_then_load_key":
        cluster.load_keys(items[:split])
        for key, value, size in items[split:]:
            cluster.load_key(key, value, size)
    else:  # "load_key_only"
        for key, value, size in items:
            cluster.load_key(key, value, size)


MODES = st.sampled_from(
    ["one_call", "two_calls", "bulk_then_load_key", "load_key_only"])


@settings(max_examples=60, deadline=None)
@given(keys=KEYS, dm=st.sampled_from([2, 8]),
       fill=st.floats(min_value=0.3, max_value=0.95),
       rf=st.integers(1, 3), mode=MODES, split=st.integers(0, 240),
       failed=st.sampled_from([None, 0, 2]))
def test_xenic_bulk_load_equals_key_by_key(keys, dm, fill, rf, mode, split,
                                           failed):
    items = items_of(keys)
    bulk = xenic_cluster(keys, dm, fill, rf)
    ref = xenic_cluster(keys, dm, fill, rf)
    if failed is not None:  # a failed node's replicas are left alone
        bulk.failed.add(failed)
        ref.failed.add(failed)
    load_in_mode(bulk, items, mode, split % len(items))
    reference_load(ref, items)
    assert cluster_state(bulk) == cluster_state(ref)
    for node in bulk.nodes:
        for table in node.tables.values():
            table.check_invariants()


def test_xenic_bulk_load_reaches_overflow_and_long_chains():
    """The property above is only worth its name if the generated tables
    get crowded: at dm=2 and 95% fill, overflow buckets and displaced
    keys both occur."""
    keys = list(range(0, 3 * 400, 1))
    cluster = xenic_cluster(keys, dm=2, fill=0.95, rf=3)
    cluster.load_keys(items_of(keys))
    table = cluster.nodes[0].tables[0]
    assert table.size / table.capacity > 0.9
    assert table.overflow_count > 0
    assert max(table.segment_max_displacement(s)
               for s in range(table.n_segments)) >= 1


@settings(max_examples=40, deadline=None)
@given(keys=KEYS, rf=st.integers(1, 3), bucket_size=st.sampled_from([2, 8]),
       mode=MODES, split=st.integers(0, 240))
def test_baseline_bulk_load_equals_key_by_key(keys, rf, bucket_size, mode,
                                              split):
    items = items_of(keys)
    bulk = baseline_cluster(keys, rf, bucket_size)
    ref = baseline_cluster(keys, rf, bucket_size)
    load_in_mode(bulk, items, mode, split % len(items))
    reference_load(ref, items)
    assert cluster_state(bulk) == cluster_state(ref)


@pytest.mark.parametrize("make", [
    lambda keys: xenic_cluster(keys, dm=8, fill=0.75, rf=3),
    lambda keys: baseline_cluster(keys, rf=3, bucket_size=8),
])
def test_replicas_share_no_object(make):
    """Log apply mutates a backup's objects on its own schedule."""
    keys = list(range(30))
    cluster = make(keys)
    cluster.load_keys(items_of(keys))
    for key in keys:
        shard = cluster.shard_of(key)
        primary = cluster.nodes[shard].tables[shard].get_object(key)
        for n in cluster.backups_of(shard):
            backup = cluster.nodes[n].tables[shard].get_object(key)
            assert backup is not primary
            backup.commit_write("changed")
            assert (primary.value, primary.version) == (("v", key), 0)


@pytest.mark.parametrize("make", [
    lambda keys: xenic_cluster(keys, dm=8, fill=0.75, rf=3),
    lambda keys: baseline_cluster(keys, rf=3, bucket_size=8),
])
def test_duplicate_keys_still_raise(make):
    cluster = make([1, 2, 3])
    with pytest.raises(KeyError):
        cluster.load_keys([(1, 0, None), (2, 0, None), (1, 0, None)])
    cluster = make([1, 2, 3])
    cluster.load_keys([(1, 0, None), (2, 0, None)])
    with pytest.raises(KeyError):
        cluster.load_keys([(3, 0, None), (2, 0, None)])
    with pytest.raises(KeyError):
        cluster.load_key(1)


def test_clone_needs_a_blank_table_with_the_same_parameters():
    src = RobinhoodTable(64, dm=4, segment_size=8, hash_salt=1)
    src.insert_many(VersionedObject(k) for k in range(40))
    for other in (RobinhoodTable(128, dm=4, segment_size=8, hash_salt=1),
                  RobinhoodTable(64, dm=8, segment_size=8, hash_salt=1),
                  RobinhoodTable(64, dm=4, segment_size=16, hash_salt=1),
                  RobinhoodTable(64, dm=4, segment_size=8, hash_salt=2),
                  ChainedTable(8, bucket_size=8, hash_salt=1)):
        before = table_state(other)
        assert not other.clone_from(src)
        assert table_state(other) == before
    used = RobinhoodTable(64, dm=4, segment_size=8, hash_salt=1)
    used.insert(7)
    assert not used.clone_from(src)
    assert used.size == 1
    twin = RobinhoodTable(64, dm=4, segment_size=8, hash_salt=1)
    assert twin.clone_from(src)
    assert robinhood_state(twin) == robinhood_state(src)


def test_emptied_chained_table_with_links_is_not_blank():
    """Deletes empty a linked bucket but leave it linked, so a table
    that once overflowed is not the table a fresh replica would be."""
    t = ChainedTable(1, bucket_size=2)
    for k in range(3):
        t.insert(k)
    for k in range(3):
        t.delete(k)
    assert t.size == 0 and t.linked_buckets == 1
    assert not t.is_blank()
    assert not t.clone_from(ChainedTable(1, bucket_size=2))
    assert ChainedTable(1, bucket_size=2).is_blank()
