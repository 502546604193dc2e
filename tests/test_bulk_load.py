"""Bulk cluster loading builds each shard once: the primary table takes
every insert, blank backups are cloned from it.  The result must be the
state key-by-key loading reaches — slot for slot, chain for chain — and
the replicas, which share the loaded objects, must still change
independently."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import SYSTEMS, BaselineCluster
from repro.bench.runner import Bench
from repro.core import XenicCluster, XenicConfig
from repro.sim import Simulator
from repro.store import (ChainedTable, LogRecord, NicIndex, RobinhoodTable,
                         VersionedObject)
from repro.workloads import Smallbank
from repro.workloads.smallbank import INITIAL_BALANCE, VALUE_SIZE

from .robinhood_reference import check_invariants

N_NODES = 3
KEYS = st.lists(st.integers(0, 1 << 40), unique=True, min_size=1, max_size=240)


def robinhood_state(t):
    return (
        list(t._slots),
        list(t._disps),
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
            check_invariants(table)


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
    """A write to one replica never shows at another, whichever write
    path makes it: replicas hold the loaded objects shared until each
    takes its own copy on its first write (log apply mutates a backup
    on its own schedule)."""
    keys = list(range(30))
    cluster = make(keys)
    cluster.load_keys(items_of(keys))

    def replicas(key):
        shard = cluster.shard_of(key)
        return [(cluster.nodes[n], cluster.nodes[n].tables[shard])
                for n in [shard] + cluster.backups_of(shard)]

    def state(table, key):
        obj = table.get_object(key)
        return obj.value, obj.version, obj.lock_owner

    def relock(node, table, key):
        assert not table.unlock_if_held(key, 99)  # never locked: no raise
        assert table.try_lock(key, 99)
        assert table.unlock_if_held(key, 99)

    paths = [
        lambda node, table, key:
            table.get_or_create(key, 48).install("new", 7),
        lambda node, table, key:
            table.get_or_create(key, 48).commit_write("new"),
        lambda node, table, key: table.try_lock(key, 99),
        relock,
    ]
    if isinstance(cluster, XenicCluster):
        paths.append(lambda node, table, key: node._apply_record(LogRecord(
            99, "log", cluster.shard_of(key), [(key, "new", 7)])))
    untouched = iter(keys)
    for write in paths:
        for at in range(3):
            key = next(untouched)
            tables = replicas(key)
            node, table = tables[at]
            obj = table.get_object(key)
            assert obj.shared
            for mutate in (lambda: obj.install("x", 1),
                           lambda: obj.commit_write("x"),
                           lambda: obj.try_lock(1),
                           lambda: obj.unlock_if_held(1)):
                with pytest.raises(RuntimeError):
                    mutate()
            before = [state(t, key) for _n, t in tables]
            write(node, table, key)
            after = [state(t, key) for _n, t in tables]
            assert after[:at] + after[at + 1:] == before[:at] + before[at + 1:]
            assert not table.get_object(key).shared
            if write is not relock:
                assert after[at] != before[at]


@pytest.mark.parametrize("system", ["xenic", "drtmh"])
def test_each_loaded_object_is_held_once(system):
    """The golden cluster (Smallbank, 3 nodes x 2,000 accounts: 12,000
    keys on three replicas each) holds one object per key after its
    build, and after the fig8d c=16 window only the copies the writes
    took on top (16,249 for Xenic, 15,314 for DrTM+H when measured):
    every live object is one a table holds."""

    def live():
        gc.collect()
        return sum(type(o) is VersionedObject for o in gc.get_objects())

    base = live()
    bench = Bench(system, Smallbank(3, accounts_per_server=2000,
                                    hot_keys_fraction=0.25), n_nodes=3)
    assert live() - base == 12000
    bench.measure(16, warmup_us=100.0, window_us=300.0)
    held = {id(obj) for node in bench.cluster.nodes
            for table in node.tables.values() for obj in table.objects()}
    assert live() - base == len(held) < 18000


def customer_order(workload):
    """Smallbank's accounts as a per-customer walk, checking then
    savings, for ``load_keys`` to group by shard."""
    for customer in range(workload.total_accounts):
        yield workload.checking_key(customer), INITIAL_BALANCE, VALUE_SIZE
        yield workload.savings_key(customer), INITIAL_BALANCE, VALUE_SIZE


def smallbank_cluster(kind, workload):
    size = dict(keys_per_shard=workload.keys_per_shard(),
                value_size=workload.value_size, partition=workload.partition)
    if kind == "xenic":
        return XenicCluster(Simulator(), workload.n_nodes, **size)
    return BaselineCluster(Simulator(), workload.n_nodes, SYSTEMS["drtmh"],
                           host_threads=2, **size)


def shared_flags(cluster):
    return {(node.node_id, shard): [o.shared for o in table.objects()]
            for node in cluster.nodes for shard, table in node.tables.items()}


@pytest.mark.parametrize("kind", ["xenic", "drtmh"])
@pytest.mark.parametrize("n_nodes", [1, 3, 32])
def test_smallbank_load_by_shard_equals_customer_order(kind, n_nodes):
    """``Smallbank.load`` builds each shard's objects in place and hands
    them to ``load_shard``; the tables must be the ones ``load_keys``
    builds from a walk over the customers: same slots, overflow, object
    order and sharing, and after a prewarm the same NIC caches."""
    workload = Smallbank(n_nodes, accounts_per_server=150)
    by_shard = smallbank_cluster(kind, workload)
    workload.load(by_shard)
    walked = smallbank_cluster(kind, workload)
    walked.load_keys(customer_order(workload))
    assert cluster_state(by_shard) == cluster_state(walked)
    assert shared_flags(by_shard) == shared_flags(walked)
    assert sum(table.size for node in by_shard.nodes
               for table in node.tables.values()) == \
        2 * workload.total_accounts * min(3, n_nodes)
    if kind == "xenic":
        by_shard.prewarm_nic_caches()
        walked.prewarm_nic_caches()
        caches = [[list(node.index_for(s)._cache.items())
                   for s, node in enumerate(c.nodes)]
                  for c in (by_shard, walked)]
        assert caches[0] == caches[1]
        assert all(caches[0])


def install_one_by_one(index, objs):
    """The NIC-cache prewarm as a per-key loop: install each uncached
    object until the cache's free room is used up."""
    budget = index.cache_capacity - index.cache_size
    for obj in objs:
        if budget <= 0:
            break
        if not index.cache_contains(obj.key):
            index.install_cache(obj.key, obj.value)
            budget -= 1


def cache_state(index):
    return (list(index._cache.items()), dict(index._pins), index.evictions,
            index.pins_blocked_eviction)


@pytest.mark.parametrize("prefill", ["blank", "partly", "pinned_full"])
@pytest.mark.parametrize("capacity", [10, 40, 41, 100])
def test_bulk_prewarm_equals_per_key_installs(capacity, prefill):
    """``NicIndex.prewarm`` fills the free room in one insert: the same
    entries in the same order, and the same eviction counters, as
    installing each object in turn, below, at and above the key count
    and on a cache that already holds entries (some pinned, some of the
    table's keys, some over capacity)."""
    states = []
    for warm in (NicIndex.prewarm, install_one_by_one):
        table = RobinhoodTable(64, dm=8, segment_size=8)
        table.insert_many(VersionedObject(k, ("v", k)) for k in range(41))
        index = NicIndex(table, cache_capacity=capacity)
        if prefill == "partly":
            index.install_cache(7, "old")
            index.apply_commit(3, "pinned")
            index.install_cache(1000, "not in the table")
        elif prefill == "pinned_full":
            for k in range(capacity + 2):
                index.apply_commit(k, "pinned")
        warm(index, table.objects())
        first = cache_state(index)
        warm(index, table.objects())  # again, on the cache it filled
        states.append((first, cache_state(index)))
    assert states[0] == states[1]
    cached = len(states[0][0][0])
    if prefill == "blank":
        assert cached == min(capacity, 41)
    elif prefill == "partly":
        assert cached == min(capacity, 42)
    else:
        assert cached == capacity + 2


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


def blank(kind):
    if kind == "robinhood":
        return RobinhoodTable(64, dm=2, segment_size=8, hash_salt=1)
    return ChainedTable(4, bucket_size=4, hash_salt=1)


def filled(kind):
    """A table with overflow buckets (Robinhood, 48 keys in 64 slots at
    Dm = 2) or linked buckets (chained, 24 keys in 16 slots), so every
    layout container has something to share."""
    t = blank(kind)
    t.insert_many(VersionedObject(k)
                  for k in range(48 if kind == "robinhood" else 24))
    return t


def structural_write(table, write):
    if write == "insert":
        table.insert(1000)
    elif write == "insert_many":
        table.insert_many([VersionedObject(1000), VersionedObject(1001)])
    else:  # deletes from main slots and from overflow buckets alike
        for k in range(0, 24, 3):
            table.delete(k)


@pytest.mark.parametrize("write", ["insert", "insert_many", "delete"])
@pytest.mark.parametrize("writer", [0, 1, 2])
@pytest.mark.parametrize("kind", ["robinhood", "chained"])
def test_a_structural_write_leaves_the_shared_layout_alone(kind, writer,
                                                           write):
    """A primary and two backups cloned from it share one layout.  A
    structural write on any of them copies the layout first: the other
    two keep their slots, displacements, overflow (or bucket chains) and
    d_i, and the writer reaches the state a table that never shared
    reaches under the same write."""
    primary = filled(kind)
    replicas = [primary, blank(kind), blank(kind)]
    for backup in replicas[1:]:
        assert backup.clone_from(primary)
    if kind == "robinhood":
        assert primary._overflow and primary._slots is replicas[1]._slots
    else:
        assert primary.linked_buckets
        assert primary._buckets is replicas[1]._buckets
    before = table_state(primary)
    structural_write(replicas[writer], write)
    reference = filled(kind)
    structural_write(reference, write)
    assert table_state(replicas[writer]) == table_state(reference)
    assert table_state(reference) != before
    for i, other in enumerate(replicas):
        if i != writer:
            assert table_state(other) == before
        if kind == "robinhood":
            check_invariants(other)


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
