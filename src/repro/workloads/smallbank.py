"""Smallbank benchmark (§5.5).

Simple transactions over account balances with 12 B objects: 15%
read-only, up to 3 keys per transaction, and a 90%-of-ops-to-4%-of-keys
hotspot.  The paper deploys 2.4 M accounts per server; the default here is
scaled down (``accounts_per_server``) with the hotspot fractions intact.

Each customer has a checking and a savings account (two keys, same
shard).  Transaction logic is real arithmetic, so the money-conservation
property test can audit serializability end-to-end.
"""

from __future__ import annotations

from ..core.txn import TxnSpec
from ..sim.rng import HotspotGenerator, RngStream
from ..store import VersionedObject
from .base import Workload, make_key

__all__ = ["Smallbank"]

VALUE_SIZE = 12
INITIAL_BALANCE = 1000

# standard Smallbank mix (H-Store): send_payment is the 2-customer txn
MIX = [
    ("balance", 15),
    ("deposit_checking", 15),
    ("transact_savings", 15),
    ("amalgamate", 15),
    ("write_check", 15),
    ("send_payment", 25),
]


class Smallbank(Workload):
    name = "smallbank"
    value_size = VALUE_SIZE

    def __init__(self, n_nodes: int, accounts_per_server: int = 20000,
                 hot_keys_fraction: float = 0.04,
                 hot_ops_fraction: float = 0.90, seed: int = 1):
        super().__init__(n_nodes, seed)
        self.accounts_per_server = accounts_per_server
        self.total_accounts = accounts_per_server * n_nodes
        self.hot_keys_fraction = hot_keys_fraction
        self.hot_ops_fraction = hot_ops_fraction
        self._pickers = {}
        # 100-entry mix table indexed by the same randrange(100) draw the
        # cumulative scan used, replacing the scan + getattr dispatch
        # with one list index (draw-identical).
        self._mix_table = []
        for kind, pct in MIX:
            self._mix_table.extend([getattr(self, "_" + kind)] * pct)
        assert len(self._mix_table) == 100

    # -- keyspace ------------------------------------------------------------

    def checking_key(self, customer: int) -> int:
        shard = customer % self.n_nodes
        return make_key(shard, (customer // self.n_nodes) * 2)

    def savings_key(self, customer: int) -> int:
        shard = customer % self.n_nodes
        return make_key(shard, (customer // self.n_nodes) * 2 + 1)

    def keys_per_shard(self) -> int:
        return self.accounts_per_server * 2

    def load(self, cluster) -> None:
        # Shard s holds customers s, s + n, ..., each checking then
        # savings: local indices 0, 1, 2, ... in customer order, so each
        # shard's objects are built in place, in the order a per-customer
        # walk would insert them.
        for shard in range(self.n_nodes):
            first = make_key(shard, 0)
            cluster.load_shard(shard, [
                VersionedObject(key, INITIAL_BALANCE, VALUE_SIZE)
                for key in range(first, first + self.keys_per_shard())])

    def _customer(self, rng: RngStream) -> int:
        picker = self._pickers.get(rng.name)
        if picker is None:
            picker = HotspotGenerator(
                self.total_accounts, self.hot_keys_fraction,
                self.hot_ops_fraction, rng,
            )
            self._pickers[rng.name] = picker
        return picker.next()

    # -- transactions ------------------------------------------------------------

    def next_spec(self, rng: RngStream, node_id: int) -> TxnSpec:
        return self._mix_table[rng.randrange(100)](rng)

    def _balance(self, rng) -> TxnSpec:
        c = self._customer(rng)
        return TxnSpec(
            read_keys=[self.checking_key(c), self.savings_key(c)],
            write_keys=[], read_only=True, logic_cost_us=0.05,
            label="balance",
        )

    def _deposit_checking(self, rng) -> TxnSpec:
        c = self._customer(rng)
        ck = self.checking_key(c)
        amount = 10

        def logic(reads, state):
            return {ck: (reads[ck] or 0) + amount}

        return TxnSpec(read_keys=[ck], write_keys=[ck], logic=logic,
                       logic_cost_us=0.05, label="deposit_checking")

    def _transact_savings(self, rng) -> TxnSpec:
        c = self._customer(rng)
        sk = self.savings_key(c)
        amount = 20

        def logic(reads, state):
            return {sk: (reads[sk] or 0) + amount}

        return TxnSpec(read_keys=[sk], write_keys=[sk], logic=logic,
                       logic_cost_us=0.05, label="transact_savings")

    def _amalgamate(self, rng) -> TxnSpec:
        c1 = self._customer(rng)
        c2 = self._customer(rng)
        if c2 == c1:
            c2 = (c1 + 1) % self.total_accounts
        ck1, sk1 = self.checking_key(c1), self.savings_key(c1)
        ck2 = self.checking_key(c2)

        def logic(reads, state):
            moved = (reads[ck1] or 0) + (reads[sk1] or 0)
            return {ck1: 0, sk1: 0, ck2: (reads[ck2] or 0) + moved}

        return TxnSpec(read_keys=[ck1, sk1, ck2],
                       write_keys=[ck1, sk1, ck2], logic=logic,
                       logic_cost_us=0.08, label="amalgamate")

    def _write_check(self, rng) -> TxnSpec:
        c = self._customer(rng)
        ck, sk = self.checking_key(c), self.savings_key(c)
        amount = 5

        def logic(reads, state):
            total = (reads[ck] or 0) + (reads[sk] or 0)
            fee = 1 if total < amount else 0
            return {ck: (reads[ck] or 0) - amount - fee}

        return TxnSpec(read_keys=[ck, sk], write_keys=[ck], logic=logic,
                       logic_cost_us=0.05, label="write_check")

    def _send_payment(self, rng) -> TxnSpec:
        c1 = self._customer(rng)
        c2 = self._customer(rng)
        if c2 == c1:
            c2 = (c1 + 1) % self.total_accounts
        ck1, ck2 = self.checking_key(c1), self.checking_key(c2)
        amount = 5

        def logic(reads, state):
            bal1 = reads[ck1] or 0
            if bal1 < amount:
                return {ck1: bal1, ck2: reads[ck2] or 0}  # insufficient funds
            return {ck1: bal1 - amount, ck2: (reads[ck2] or 0) + amount}

        return TxnSpec(read_keys=[ck1, ck2], write_keys=[ck1, ck2],
                       logic=logic, logic_cost_us=0.05, label="send_payment")

    # -- invariants ------------------------------------------------------------

    def total_money(self, cluster) -> int:
        """Sum of all balances from the authoritative committed state.
        ``send_payment`` and ``amalgamate`` conserve money; deposits add a
        known amount, used by the conservation test."""
        total = 0
        for customer in range(self.total_accounts):
            for key in (self.checking_key(customer), self.savings_key(customer)):
                value = cluster.read_committed_value(key)
                total += value if value is not None else 0
        return total
