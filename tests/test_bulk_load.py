"""Bulk cluster loading records each shard once: the primary table takes
every object, blank backups copy its key -> object map, and every table
builds its layout on first use.  The layout built must be the state
key-by-key loading reaches — slot for slot, chain for chain — and the
replicas, which share the loaded objects, must still change
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


def is_built(t):
    """Whether ``t`` has built its layout (a load leaves it unbuilt)."""
    layout = t._slots if isinstance(t, RobinhoodTable) else t._buckets
    return layout is not None


def built(t):
    """``t``, its layout built first if it was not."""
    if not is_built(t):
        t._build_layout()
    return t


def robinhood_state(t):
    built(t)
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
    built(t)
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


def test_clone_copies_the_map_of_an_unbuilt_table():
    """A blank, unbuilt table with the source's parameters takes a copy
    of its key -> object map and nothing else; any other table, or a
    source that has built its layout, is left as it was."""
    src = RobinhoodTable(64, dm=4, segment_size=8, hash_salt=1)
    src.insert_many(VersionedObject(k) for k in range(40))
    built_blank = RobinhoodTable(64, dm=4, segment_size=8, hash_salt=1)
    built_blank.lookup(7)
    used = RobinhoodTable(64, dm=4, segment_size=8, hash_salt=1)
    used.insert_many([VersionedObject(7)])
    for other in (RobinhoodTable(128, dm=4, segment_size=8, hash_salt=1),
                  RobinhoodTable(64, dm=8, segment_size=8, hash_salt=1),
                  RobinhoodTable(64, dm=4, segment_size=16, hash_salt=1),
                  RobinhoodTable(64, dm=4, segment_size=8, hash_salt=2),
                  ChainedTable(8, bucket_size=8, hash_salt=1),
                  built_blank, used):
        before = (is_built(other), list(other.objects()))
        assert not other.clone_from(src)
        assert (is_built(other), list(other.objects())) == before
    twin = RobinhoodTable(64, dm=4, segment_size=8, hash_salt=1)
    assert twin.clone_from(src)
    assert not is_built(twin) and not is_built(src)
    assert twin._objects == src._objects and twin._objects is not src._objects
    assert robinhood_state(twin) == robinhood_state(src)
    late = RobinhoodTable(64, dm=4, segment_size=8, hash_salt=1)
    assert not late.clone_from(src)  # src built its layout just above
    assert late.is_blank() and not is_built(late)


def blank(kind):
    if kind == "robinhood":
        return RobinhoodTable(64, dm=2, segment_size=8, hash_salt=1)
    return ChainedTable(4, bucket_size=4, hash_salt=1)


def n_filled(kind):
    # Robinhood: 48 keys in 64 slots at Dm = 2, so overflow buckets fill;
    # chained: 24 keys in 16 slots, so buckets link
    return 48 if kind == "robinhood" else 24


def filled(kind):
    """A loaded table whose layout, once built, has overflow buckets
    (Robinhood) or linked buckets (chained)."""
    t = blank(kind)
    t.insert_many(VersionedObject(k) for k in range(n_filled(kind)))
    return t


def inserted(kind, keys):
    """The table ``keys`` reach inserted one by one, each building on
    the layout the last one left."""
    t = blank(kind)
    for k in keys:
        t.insert(k)
    return t


@given(keys=st.lists(st.integers(0, 1 << 40), unique=True, max_size=60),
       kind=st.sampled_from(["robinhood", "chained"]))
def test_a_built_layout_equals_key_by_key_inserts(keys, kind):
    """The layout a table builds on first use over what a load recorded
    is the one inserting each key in load order builds."""
    loaded = blank(kind)
    loaded.insert_many(VersionedObject(k) for k in keys)
    assert not is_built(loaded)
    assert table_state(loaded) == table_state(inserted(kind, keys))
    if kind == "robinhood":
        check_invariants(loaded)


@pytest.mark.parametrize("kind", ["robinhood", "chained"])
def test_a_built_layout_has_overflow_and_linked_buckets(kind):
    """The crowded layout, built from a load, equals the key-by-key one
    in the containers only crowding fills: Robinhood overflow buckets
    and linked chained buckets."""
    loaded = filled(kind)
    loaded.lookup(0)
    reference = inserted(kind, range(n_filled(kind)))
    if kind == "robinhood":
        assert loaded._overflow == reference._overflow and loaded._overflow
        assert loaded.overflow_count == reference.overflow_count > 0
    else:
        assert loaded.linked_buckets == reference.linked_buckets > 0
    assert table_state(loaded) == table_state(reference)


@pytest.mark.parametrize("kind", ["robinhood", "chained"])
def test_a_load_rejects_a_duplicate_before_any_layout(kind):
    """A duplicate key raises at load time, on an unbuilt table, and
    leaves the objects before it loaded, as a loop of inserts would."""
    t = blank(kind)
    with pytest.raises(KeyError):
        t.insert_many(VersionedObject(k) for k in (1, 2, 3, 2, 4))
    assert not is_built(t)
    assert [o.key for o in t.objects()] == [1, 2, 3] and t.size == 3
    with pytest.raises(KeyError):
        t.insert_many([VersionedObject(3)])
    assert table_state(t) == table_state(inserted(kind, [1, 2, 3]))


def test_an_overfull_unlimited_table_raises_at_load():
    """With no displacement limit a key past the last free slot has
    nowhere to go: the load that brings it raises, as key-by-key inserts
    do, and keeps the keys before it."""
    t = RobinhoodTable.unlimited(16)
    with pytest.raises(RuntimeError):
        t.insert_many(VersionedObject(k) for k in range(17))
    reference = RobinhoodTable.unlimited(16)
    for k in range(16):
        reference.insert(k)
    with pytest.raises(RuntimeError):
        reference.insert(16)
    assert table_state(t) == table_state(reference)
    assert t.size == 16 and 16 not in t


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
def test_a_structural_write_builds_only_the_written_layout(kind, writer,
                                                           write):
    """A primary and two backups copied from it share the loaded objects
    and no layout.  An insert or a delete on any of them builds that
    replica's layout, and only that one (an ``insert_many`` on an
    unbuilt table records, like the load); the writer reaches the state
    a table loaded alone reaches under the same write, and the other
    two keep their contents."""
    primary = filled(kind)
    replicas = [primary, blank(kind), blank(kind)]
    for backup in replicas[1:]:
        assert backup.clone_from(primary)
    keys = [o.key for o in primary.objects()]
    structural_write(replicas[writer], write)
    assert [is_built(t) for t in replicas] == [
        i == writer and write != "insert_many" for i in range(3)]
    reference = filled(kind)
    structural_write(reference, write)
    assert table_state(replicas[writer]) == table_state(reference)
    for i, other in enumerate(replicas):
        if i != writer:
            assert [o.key for o in other.objects()] == keys
            assert table_state(other) == table_state(filled(kind))
        if kind == "robinhood":
            check_invariants(other)


def layouts_built(bench):
    return sorted((node.node_id, shard) for node in bench.cluster.nodes
                  for shard, table in node.tables.items() if is_built(table))


@pytest.mark.parametrize("system", ["xenic", "drtmh"])
def test_a_warm_run_builds_no_layout(system):
    """Set-up, a low-load window and a peak window of warm Smallbank
    (every read a NIC-cache hit on Xenic, one one-sided READ through the
    remote-address cache on DrTM+H) read no table layout, so none is
    built."""
    bench = Bench(system, Smallbank(3, accounts_per_server=2000,
                                    hot_keys_fraction=0.25), n_nodes=3)
    assert layouts_built(bench) == []
    bench.measure(2, warmup_us=100.0, window_us=100.0)
    bench.measure(64, warmup_us=100.0, window_us=60.0)
    assert layouts_built(bench) == []


def test_a_cold_run_builds_its_primaries_layouts_in_low_load():
    """With a 64-entry NIC cache every read misses to the host table:
    the first miss on each primary builds that primary's layout, all of
    them inside the low-load window, and no backup's is ever built."""
    bench = Bench("xenic", Smallbank(3, accounts_per_server=2000,
                                     hot_keys_fraction=0.25), n_nodes=3,
                  xenic_config=XenicConfig(nic_cache_capacity=64))
    assert layouts_built(bench) == []
    bench.measure(2, warmup_us=100.0, window_us=100.0)
    primaries = [(n, n) for n in range(3)]
    assert layouts_built(bench) == primaries
    bench.measure(64, warmup_us=100.0, window_us=60.0)
    assert layouts_built(bench) == primaries


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
