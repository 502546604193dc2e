"""Tests for the TPC-C / Retwis / Smallbank workload generators."""

import pytest

from repro.sim.rng import RngStream
from repro.workloads import (
    Retwis,
    Smallbank,
    TpccFull,
    TpccNewOrder,
    make_key,
    shard_of_key,
)


def rng():
    return RngStream(11, "t")


# ---------------------------------------------------------------------------
# key layout
# ---------------------------------------------------------------------------


def test_make_key_shard_roundtrip():
    for shard in (0, 3, 5):
        for idx in (0, 1, 99999):
            assert shard_of_key(make_key(shard, idx)) == shard


def test_make_key_range_check():
    with pytest.raises(ValueError):
        make_key(0, 1 << 22)


# ---------------------------------------------------------------------------
# Smallbank
# ---------------------------------------------------------------------------


def test_smallbank_keys_follow_customer_shard():
    wl = Smallbank(6, accounts_per_server=100)
    for c in range(60):
        assert shard_of_key(wl.checking_key(c)) == c % 6
        assert shard_of_key(wl.savings_key(c)) == c % 6
        assert wl.checking_key(c) != wl.savings_key(c)


def test_smallbank_mix_fractions():
    wl = Smallbank(3, accounts_per_server=1000)
    r = rng()
    labels = {}
    for _ in range(4000):
        spec = wl.next_spec(r, 0)
        labels[spec.label] = labels.get(spec.label, 0) + 1
    assert 0.10 < labels["balance"] / 4000 < 0.20  # 15% read-only
    assert 0.20 < labels["send_payment"] / 4000 < 0.30
    # up to 3 keys per transaction
    for _ in range(200):
        spec = wl.next_spec(r, 0)
        assert len(spec.all_keys()) <= 3


def test_smallbank_read_only_flag():
    wl = Smallbank(3, accounts_per_server=1000)
    r = rng()
    for _ in range(300):
        spec = wl.next_spec(r, 0)
        assert spec.read_only == (spec.label == "balance")


def test_smallbank_hotspot_concentration():
    wl = Smallbank(3, accounts_per_server=10000)
    r = rng()
    hot_n = int(30000 * 0.04)
    hot = 0
    total = 0
    for _ in range(2000):
        spec = wl.next_spec(r, 0)
        for k in spec.all_keys():
            total += 1
    # direct customer draws
    picks = [wl._customer(r.split("probe")) for _ in range(5000)]
    hot = sum(1 for c in picks if c < hot_n)
    assert hot / 5000 > 0.8


def test_smallbank_logic_conserves_money_send_payment():
    wl = Smallbank(3, accounts_per_server=100)
    r = rng()
    while True:
        spec = wl.next_spec(r, 0)
        if spec.label == "send_payment":
            break
    reads = {k: 1000 for k in spec.read_keys}
    out = spec.logic(reads, None)
    assert sum(out.values()) == sum(reads[k] for k in out)


def test_smallbank_amalgamate_moves_everything():
    wl = Smallbank(3, accounts_per_server=100)
    r = rng()
    while True:
        spec = wl.next_spec(r, 0)
        if spec.label == "amalgamate":
            break
    reads = {k: 100 for k in spec.read_keys}
    out = spec.logic(reads, None)
    zeros = [v for v in out.values() if v == 0]
    assert len(zeros) == 2
    assert max(out.values()) == 300


# ---------------------------------------------------------------------------
# Retwis
# ---------------------------------------------------------------------------


def test_retwis_mix_half_read_only():
    wl = Retwis(3, keys_per_server=5000)
    r = rng()
    ro = 0
    n = 3000
    for _ in range(n):
        spec = wl.next_spec(r, 0)
        if spec.read_only:
            ro += 1
        assert 1 <= len(spec.all_keys()) <= 10
    assert 0.42 < ro / n < 0.58


def test_retwis_keys_unique_within_txn():
    wl = Retwis(3, keys_per_server=5000)
    r = rng()
    for _ in range(200):
        spec = wl.next_spec(r, 0)
        keys = spec.all_keys()
        assert len(keys) == len(set(keys))


def test_retwis_hot_keys_spread_across_shards():
    wl = Retwis(3, keys_per_server=5000)
    shards = {shard_of_key(wl.key_at(rank)) for rank in range(6)}
    assert shards == {0, 1, 2}


# ---------------------------------------------------------------------------
# TPC-C
# ---------------------------------------------------------------------------


def test_tpcc_key_layout_no_collisions():
    wl = TpccNewOrder(3, warehouses_per_server=2, stock_per_warehouse=100,
                      customers_per_warehouse=30)
    keys = set()
    for wid in range(6):
        keys.add(wl.warehouse_key(wid))
        for did in range(10):
            keys.add(wl.district_key(wid, did))
        for cid in range(30):
            keys.add(wl.customer_key(wid, cid))
        for item in range(100):
            keys.add(wl.stock_key(wid, item))
    assert len(keys) == 6 * (1 + 10 + 30 + 100)


def test_tpcc_warehouse_partitioning():
    wl = TpccNewOrder(3, warehouses_per_server=2)
    for wid in range(6):
        node = wid % 3
        assert shard_of_key(wl.warehouse_key(wid)) == node
        assert shard_of_key(wl.stock_key(wid, 5)) == node


def test_tpcc_new_order_shape():
    wl = TpccNewOrder(3, warehouses_per_server=2, stock_per_warehouse=200)
    r = rng()
    for _ in range(100):
        spec = wl.next_spec(r, 0)
        assert spec.label == "new_order"
        assert 6 <= len(spec.all_keys()) <= 16  # district + 5..15 stocks
        assert spec.local_compute_us > 1.0  # B+ tree work
        assert spec.ship_execution


def test_tpcc_new_order_logic_decrements_stock():
    wl = TpccNewOrder(3, warehouses_per_server=2, stock_per_warehouse=200)
    r = rng()
    spec = wl.next_spec(r, 0)
    reads = {}
    for k in spec.read_keys:
        reads[k] = {"next_o_id": 5, "ytd": 0} if k == spec.read_keys[0] \
            else {"qty": 50}
    out = spec.logic(reads, None)
    assert out[spec.read_keys[0]]["next_o_id"] == 6
    for k in spec.read_keys[1:]:
        assert out[k]["qty"] == 49


def test_tpcc_new_order_restock_rule():
    wl = TpccNewOrder(3, warehouses_per_server=2, stock_per_warehouse=200)
    r = rng()
    spec = wl.next_spec(r, 0)
    reads = {k: {"qty": 10} for k in spec.read_keys}
    reads[spec.read_keys[0]] = {"next_o_id": 1, "ytd": 0}
    out = spec.logic(reads, None)
    for k in spec.read_keys[1:]:
        assert out[k]["qty"] == 100  # 10 - 1 + 91


def test_tpcc_full_mix_fractions():
    wl = TpccFull(3, warehouses_per_server=2, stock_per_warehouse=200)
    r = rng()
    labels = {}
    for _ in range(3000):
        spec = wl.next_spec(r, 0)
        labels[spec.label] = labels.get(spec.label, 0) + 1
    assert 0.38 < labels["new_order"] / 3000 < 0.52
    assert 0.36 < labels["payment"] / 3000 < 0.50
    assert labels.get("order_status", 0) > 0
    assert labels.get("delivery", 0) > 0
    assert labels.get("stock_level", 0) > 0


def test_tpcc_full_mostly_local_supply():
    wl = TpccFull(6, warehouses_per_server=2, stock_per_warehouse=500)
    r = rng()
    remote = 0
    total = 0
    for _ in range(300):
        spec = wl.new_order_spec(r, 0)
        home_shard = shard_of_key(spec.read_keys[0])
        for k in spec.read_keys[1:]:
            total += 1
            if shard_of_key(k) != home_shard:
                remote += 1
    assert remote / total < 0.05  # ~1% per item in spec mode


def test_tpcc_new_order_only_uniform_supply():
    wl = TpccNewOrder(6, warehouses_per_server=2, stock_per_warehouse=500)
    r = rng()
    remote = 0
    total = 0
    for _ in range(300):
        spec = wl.next_spec(r, 0)
        home_shard = shard_of_key(spec.read_keys[0])
        for k in spec.read_keys[1:]:
            total += 1
            if shard_of_key(k) != home_shard:
                remote += 1
    assert remote / total > 0.6  # uniform across 6 nodes


def test_workload_spec_streams_deterministic():
    wl1 = Smallbank(3, accounts_per_server=500, seed=9)
    wl2 = Smallbank(3, accounts_per_server=500, seed=9)
    g1 = wl1.generator_for(0, "s")
    g2 = wl2.generator_for(0, "s")
    for _ in range(50):
        assert g1.next().label == g2.next().label
