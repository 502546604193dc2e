"""Retwis benchmark (§5.4): a Twitter-clone transaction mix.

50% read-only transactions, 1-10 keys per transaction, 64 B values,
Zipf α=0.5 access skew over 1 M keys per server (scaled by default).
The mix follows the TAPIR/Meerkat Retwis workloads the paper cites:
add_user 5%, follow 15%, post_tweet 30%, get_timeline 50%.

Minimal coordinator-side computation is involved (§5.4), so Xenic ships
all execution to the NIC.
"""

from __future__ import annotations

from ..core.txn import TxnSpec
from ..sim.rng import RngStream, ZipfGenerator
from .base import Workload, make_key

__all__ = ["Retwis"]

VALUE_SIZE = 64
ZIPF_ALPHA = 0.5

MIX = [
    ("add_user", 5),
    ("follow", 15),
    ("post_tweet", 30),
    ("get_timeline", 50),
]


class Retwis(Workload):
    name = "retwis"
    value_size = VALUE_SIZE

    def __init__(self, n_nodes: int, keys_per_server: int = 50000,
                 seed: int = 1):
        super().__init__(n_nodes, seed)
        self.keys_per_server = keys_per_server
        self.total_keys = keys_per_server * n_nodes
        self._zipfs = {}
        # 100-entry mix table indexed by the same randrange(100) draw the
        # cumulative scan used (draw-identical, one list index per txn).
        self._mix_table = []
        for kind, pct in MIX:
            self._mix_table.extend([getattr(self, "_" + kind)] * pct)
        assert len(self._mix_table) == 100

    def key_at(self, rank: int) -> int:
        """Map a popularity rank to a key spread round-robin over shards,
        so hot keys are distributed across the cluster."""
        shard = rank % self.n_nodes
        return make_key(shard, rank // self.n_nodes)

    def keys_per_shard(self) -> int:
        return self.keys_per_server

    def load(self, cluster) -> None:
        cluster.load_keys(
            (self.key_at(rank), ("data", rank), VALUE_SIZE)
            for rank in range(self.total_keys)
        )

    def _pick_keys(self, rng: RngStream, n: int):
        zipf = self._zipfs.get(rng.name)
        if zipf is None:
            zipf = ZipfGenerator(self.total_keys, ZIPF_ALPHA, rng)
            self._zipfs[rng.name] = zipf
        nxt = zipf.next
        key_at = self.key_at
        keys = []
        seen = set()
        add = seen.add
        append = keys.append
        while len(keys) < n:
            k = key_at(nxt())
            if k not in seen:
                add(k)
                append(k)
        return keys

    def next_spec(self, rng: RngStream, node_id: int) -> TxnSpec:
        return self._mix_table[rng.randrange(100)](rng)

    def _add_user(self, rng) -> TxnSpec:
        keys = self._pick_keys(rng, 3)
        read = keys[:1]
        write = keys

        def logic(reads, state):
            return {k: ("user", k) for k in write}

        return TxnSpec(read_keys=read, write_keys=write, logic=logic,
                       logic_cost_us=0.10, label="add_user")

    def _follow(self, rng) -> TxnSpec:
        keys = self._pick_keys(rng, 2)

        def logic(reads, state):
            return {k: ("follow", reads.get(k)) for k in keys}

        return TxnSpec(read_keys=keys, write_keys=keys, logic=logic,
                       logic_cost_us=0.10, label="follow")

    def _post_tweet(self, rng) -> TxnSpec:
        keys = self._pick_keys(rng, 5)
        read = keys[:3]
        write = keys[:3] + keys[3:]

        def logic(reads, state):
            return {k: ("tweet", k) for k in write}

        return TxnSpec(read_keys=read, write_keys=write, logic=logic,
                       logic_cost_us=0.15, label="post_tweet")

    def _get_timeline(self, rng) -> TxnSpec:
        n = 1 + rng.randrange(10)
        keys = self._pick_keys(rng, n)
        return TxnSpec(read_keys=keys, write_keys=[], read_only=True,
                       logic_cost_us=0.05, label="get_timeline")
