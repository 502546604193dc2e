"""Property-style serializability checks against a reference model.

OCC + primary-backup must be equivalent to *some* serial order.  For
commutative increment workloads the final state is order-independent, so
we can check exact equality with a reference ledger; for version counters,
the count of committed writes per key must match the final version.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TxnSpec, XenicCluster, XenicConfig
from repro.sim import Simulator

N_NODES = 3
KEYS = 30


def build():
    sim = Simulator()
    cluster = XenicCluster(sim, N_NODES, config=XenicConfig(),
                           keys_per_shard=128, value_size=16)
    for k in range(KEYS):
        cluster.load_key(k, value=0)
    cluster.start()
    return sim, cluster


@settings(max_examples=10, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=N_NODES - 1),  # coordinator
            st.lists(st.integers(min_value=0, max_value=KEYS - 1),
                     unique=True, min_size=1, max_size=4),  # keys
            st.integers(min_value=1, max_value=9),  # increment
        ),
        min_size=1, max_size=40,
    )
)
def test_concurrent_increments_match_reference(ops):
    """All transactions increment their keys; increments commute, so the
    final state must equal the reference ledger regardless of commit
    order — any lost update or double-apply breaks this."""
    sim, cluster = build()
    reference = {k: 0 for k in range(KEYS)}
    for _coord, keys, amount in ops:
        for k in keys:
            reference[k] += amount

    def run_op(coord, keys, amount):
        def logic(reads, state, keys=tuple(keys), amount=amount):
            return {k: reads[k] + amount for k in keys}

        spec = TxnSpec(read_keys=list(keys), write_keys=list(keys),
                       logic=logic)
        yield from cluster.protocols[coord].run_transaction(spec)

    for coord, keys, amount in ops:
        sim.spawn(run_op(coord, keys, amount))
    # Bounded (a clean run drains well inside 1000us): two conflicting
    # transactions can abort each other in lockstep for ever (ROADMAP
    # item 1), and that should fail here, not hang the suite.
    sim.run(until=50_000.0)
    for k in range(KEYS):
        assert cluster.read_committed_value(k) == reference[k], (
            "key %d diverged" % k
        )


@settings(max_examples=8, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=N_NODES - 1),
            st.integers(min_value=0, max_value=KEYS - 1),
        ),
        min_size=1, max_size=30,
    )
)
def test_version_counter_equals_committed_writes(ops):
    sim, cluster = build()
    writes_per_key = {}
    for _coord, k in ops:
        writes_per_key[k] = writes_per_key.get(k, 0) + 1

    def run_op(coord, k):
        spec = TxnSpec(read_keys=[k], write_keys=[k],
                       logic=lambda r, s, k=k: {k: (r[k] or 0) + 1})
        yield from cluster.protocols[coord].run_transaction(spec)

    for coord, k in ops:
        sim.spawn(run_op(coord, k))
    sim.run()
    for k, count in writes_per_key.items():
        shard = cluster.shard_of(k)
        node = cluster.primary_of(shard)
        assert node.index_for(shard).read_version(k) == count
        # host table caught up after drain
        assert node.tables[shard].get_object(k).version == count
