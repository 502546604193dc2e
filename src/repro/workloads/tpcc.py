"""TPC-C benchmark (§5.2, §5.3).

Nine tables.  WAREHOUSE / DISTRICT / CUSTOMER / STOCK live in the
replicated hash stores (these are the cross-cluster tables); ITEM is a
read-only catalog (modeled as coordinator-local compute); ORDER /
NEW-ORDER / ORDER-LINE / HISTORY are B+ trees local to each coordinator
(§5.2).  Their inserts are charged as host compute; no transaction here
reads them back, so no tree is kept.

Two modes:

* **New-Order only** (``TpccNewOrder``) — DrTM+H's simplified workload:
  only new-order transactions, with item supply warehouses picked
  *uniformly at random* across the cluster ("a strenuous remote access
  pattern", §5.2).
* **Full mix** (``TpccFull``) — the standard five-type mix with
  spec-standard remote fractions (~1% remote per new-order item, 15%
  remote payment customers); throughput is counted as new-order
  transactions per second (~45% of the mix, §5.3).

Scale: the paper runs 72 warehouses/server with full TPC-C table sizes;
defaults here are scaled down (warehouses, stock rows, customers per
warehouse) with the access pattern preserved.
"""

from __future__ import annotations

from typing import List

from ..core.txn import TxnSpec
from ..hw.params import (TPCC_BTREE_OP_US, TPCC_DELIVERY_US,
                         TPCC_ITEM_LOOKUP_US, TPCC_ORDER_STATUS_US,
                         TPCC_PAYMENT_LOCAL_US, TPCC_STOCK_LEVEL_US)
from ..sim.rng import RngStream
from .base import Workload, make_key

__all__ = ["TpccNewOrder", "TpccFull"]

# object sizes (bytes); the paper notes "a range of object sizes up to 660B"
WAREHOUSE_BYTES = 89
DISTRICT_BYTES = 96
CUSTOMER_BYTES = 660
STOCK_BYTES = 320

DISTRICTS_PER_WAREHOUSE = 10

FULL_MIX = [
    ("new_order", 45),
    ("payment", 43),
    ("order_status", 4),
    ("delivery", 4),
    ("stock_level", 4),
]


class _TpccBase(Workload):
    value_size = STOCK_BYTES  # dominant remote object
    # TPC-C's B+ tree manipulation is host-compute heavy (§5.6, Table 3):
    # Xenic needs ~18 host threads here, unlike Retwis/Smallbank.
    xenic_app_threads = 12
    xenic_worker_threads = 6
    baseline_host_threads = 32

    def __init__(self, n_nodes: int, warehouses_per_server: int = 8,
                 stock_per_warehouse: int = 2000,
                 customers_per_warehouse: int = 300, seed: int = 1):
        super().__init__(n_nodes, seed)
        self.w_per_server = warehouses_per_server
        self.stock_per_wh = stock_per_warehouse
        self.customers_per_wh = customers_per_warehouse
        self.total_warehouses = warehouses_per_server * n_nodes
        # local-index layout inside each shard
        w = warehouses_per_server
        self._district_base = w
        self._customer_base = self._district_base + w * DISTRICTS_PER_WAREHOUSE
        self._stock_base = (
            self._customer_base + w * customers_per_warehouse
        )
        self._keys_per_shard = self._stock_base + w * stock_per_warehouse

    # -- key layout ------------------------------------------------------------

    def node_of_warehouse(self, wid: int) -> int:
        return wid % self.n_nodes

    def _local_wid(self, wid: int) -> int:
        return wid // self.n_nodes

    def warehouse_key(self, wid: int) -> int:
        return make_key(self.node_of_warehouse(wid), self._local_wid(wid))

    def district_key(self, wid: int, did: int) -> int:
        idx = self._district_base + self._local_wid(wid) * DISTRICTS_PER_WAREHOUSE + did
        return make_key(self.node_of_warehouse(wid), idx)

    def customer_key(self, wid: int, cid: int) -> int:
        idx = self._customer_base + self._local_wid(wid) * self.customers_per_wh + cid
        return make_key(self.node_of_warehouse(wid), idx)

    def stock_key(self, wid: int, item: int) -> int:
        idx = self._stock_base + self._local_wid(wid) * self.stock_per_wh + item
        return make_key(self.node_of_warehouse(wid), idx)

    def keys_per_shard(self) -> int:
        return self._keys_per_shard

    # -- loading ------------------------------------------------------------

    def load(self, cluster) -> None:
        cluster.load_keys(self._load_items())

    def _load_items(self):
        for wid in range(self.total_warehouses):
            yield self.warehouse_key(wid), {"ytd": 0}, WAREHOUSE_BYTES
            for did in range(DISTRICTS_PER_WAREHOUSE):
                yield (self.district_key(wid, did),
                       {"next_o_id": 1, "ytd": 0}, DISTRICT_BYTES)
            for cid in range(self.customers_per_wh):
                yield self.customer_key(wid, cid), {"balance": 0}, CUSTOMER_BYTES
            for item in range(self.stock_per_wh):
                yield self.stock_key(wid, item), {"qty": 100}, STOCK_BYTES

    # -- new-order ------------------------------------------------------------

    def _home_warehouse(self, rng: RngStream, node_id: int) -> int:
        return node_id + self.n_nodes * rng.randrange(self.w_per_server)

    def _supply_warehouse(self, rng: RngStream, home_wid: int) -> int:
        raise NotImplementedError

    def new_order_spec(self, rng: RngStream, node_id: int) -> TxnSpec:
        home = self._home_warehouse(rng, node_id)
        did = rng.randrange(DISTRICTS_PER_WAREHOUSE)
        n_items = 5 + rng.randrange(11)  # 5-15 items (§5.2)
        dk = self.district_key(home, did)
        stock_keys: List[int] = []
        seen = set()
        while len(stock_keys) < n_items:
            wid = self._supply_warehouse(rng, home)
            sk = self.stock_key(wid, rng.randrange(self.stock_per_wh))
            if sk not in seen:
                seen.add(sk)
                stock_keys.append(sk)

        def logic(reads, state):
            out = {}
            district = reads.get(dk) or {"next_o_id": 1}
            out[dk] = {"next_o_id": district["next_o_id"] + 1,
                       "ytd": district.get("ytd", 0)}
            for sk in stock_keys:
                stock = reads.get(sk) or {"qty": 100}
                qty = stock["qty"] - 1
                if qty < 10:
                    qty += 91  # restock per the TPC-C rule
                out[sk] = {"qty": qty}
            return out

        # coordinator-local work: ITEM catalog lookups plus ORDER /
        # ORDER-LINE B+ tree inserts
        local_us = (n_items * TPCC_ITEM_LOOKUP_US
                    + (1 + n_items) * TPCC_BTREE_OP_US)

        return TxnSpec(
            read_keys=[dk] + stock_keys,
            write_keys=[dk] + stock_keys,
            logic=logic,
            logic_cost_us=0.05 * (1 + n_items),
            local_compute_us=local_us,
            ship_execution=True,  # §5.3: new-order ships to the NIC
            label="new_order",
            # only a few fields of each row change (s_quantity, s_ytd,
            # d_next_o_id): replicate deltas, not whole rows
            write_bytes=24,
        )


class TpccNewOrder(_TpccBase):
    """DrTM+H's simplified workload: new-order only, uniform-random
    supply warehouses (§5.2)."""

    name = "tpcc_no"

    def _supply_warehouse(self, rng: RngStream, home_wid: int) -> int:
        return rng.randrange(self.total_warehouses)

    def next_spec(self, rng: RngStream, node_id: int) -> TxnSpec:
        return self.new_order_spec(rng, node_id)


class TpccFull(_TpccBase):
    """The standard five-type TPC-C mix (§5.3)."""

    name = "tpcc"

    def _supply_warehouse(self, rng: RngStream, home_wid: int) -> int:
        # spec: 1% of items come from a remote warehouse
        if rng.randrange(100) == 0 and self.total_warehouses > 1:
            while True:
                wid = rng.randrange(self.total_warehouses)
                if wid != home_wid:
                    return wid
        return home_wid

    _mix_table = None

    def next_spec(self, rng: RngStream, node_id: int) -> TxnSpec:
        # 100-entry mix table indexed by the same randrange(100) draw the
        # cumulative scan used (draw-identical, one list index per txn).
        table = self._mix_table
        if table is None:
            table = []
            for kind, pct in FULL_MIX:
                table.extend([getattr(self, "_" + kind)] * pct)
            assert len(table) == 100
            self._mix_table = table
        return table[rng.randrange(100)](rng, node_id)

    def _new_order(self, rng, node_id) -> TxnSpec:
        return self.new_order_spec(rng, node_id)

    def _payment(self, rng, node_id) -> TxnSpec:
        home = self._home_warehouse(rng, node_id)
        did = rng.randrange(DISTRICTS_PER_WAREHOUSE)
        # 15% of payments go to a remote customer (§5.3 / spec)
        if rng.randrange(100) < 15 and self.total_warehouses > 1:
            cust_wid = rng.randrange(self.total_warehouses)
        else:
            cust_wid = home
        wk = self.warehouse_key(home)
        dk = self.district_key(home, did)
        ck = self.customer_key(cust_wid, rng.randrange(self.customers_per_wh))
        amount = 10

        def logic(reads, state):
            w = reads.get(wk) or {"ytd": 0}
            d = reads.get(dk) or {"next_o_id": 1, "ytd": 0}
            c = reads.get(ck) or {"balance": 0}
            return {
                wk: {"ytd": w["ytd"] + amount},
                dk: dict(d, ytd=d.get("ytd", 0) + amount),
                ck: {"balance": c["balance"] - amount},
            }

        return TxnSpec(
            read_keys=[wk, dk, ck], write_keys=[wk, dk, ck], logic=logic,
            logic_cost_us=0.15, local_compute_us=TPCC_PAYMENT_LOCAL_US,
            ship_execution=True,  # §5.3: payment ships to the NIC
            label="payment",
            write_bytes=16,  # ytd / balance field updates
        )

    def _order_status(self, rng, node_id) -> TxnSpec:
        home = self._home_warehouse(rng, node_id)
        ck = self.customer_key(home, rng.randrange(self.customers_per_wh))
        return TxnSpec(read_keys=[ck], write_keys=[], read_only=True,
                       local_compute_us=TPCC_ORDER_STATUS_US,
                       ship_execution=False, label="order_status")

    def _delivery(self, rng, node_id) -> TxnSpec:
        # chopped: one district's delivery per database transaction (§5.3)
        home = self._home_warehouse(rng, node_id)
        ck = self.customer_key(home, rng.randrange(self.customers_per_wh))

        def logic(reads, state):
            c = reads.get(ck) or {"balance": 0}
            return {ck: {"balance": c["balance"] + 25}}

        return TxnSpec(read_keys=[ck], write_keys=[ck], logic=logic,
                       logic_cost_us=0.2, local_compute_us=TPCC_DELIVERY_US,
                       ship_execution=False, label="delivery",
                       write_bytes=16)

    def _stock_level(self, rng, node_id) -> TxnSpec:
        home = self._home_warehouse(rng, node_id)
        did = rng.randrange(DISTRICTS_PER_WAREHOUSE)
        dk = self.district_key(home, did)
        n = min(20, self.stock_per_wh)
        stock_keys = [
            self.stock_key(home, rng.randrange(self.stock_per_wh))
            for _ in range(n)
        ]
        stock_keys = list(dict.fromkeys(stock_keys))
        return TxnSpec(read_keys=[dk] + stock_keys, write_keys=[],
                       read_only=True, local_compute_us=TPCC_STOCK_LEVEL_US,
                       ship_execution=False, label="stock_level")
