"""The paper's shape claims, asserted on the committed ``BENCH_paper.json``.

``python -m repro paper`` writes one row per ``COMMANDS`` entry and
``paper --check`` (a CI job) reruns every row and compares it with the
file exactly; runs are deterministic per seed, so a row is a value, not
a sample.  Each ``test_<artifact>`` below asserts one table or figure's
claims on the committed rows: who wins, orderings and rough factors,
with the tolerances the reproduction admits (EXPERIMENTS.md).  The
cheap rows are also rerun here, so a model change that moves one fails
tier-1 as well as the ``paper`` job.
"""

import json
from pathlib import Path

import pytest

from repro.__main__ import COMMANDS, PAPER_JSON, main
from repro.bench import to_jsonable

ROWS = json.loads(
    (Path(__file__).resolve().parent.parent / PAPER_JSON).read_text()
)["results"]

SIZES = ("16", "64", "256")


def peaks(curves):
    return {s: max(r["throughput_per_server"] for r in rs)
            for s, rs in curves.items()}


def low_latencies(curves):
    return {s: min(r["median_latency_us"] for r in rs)
            for s, rs in curves.items()}


def test_committed_rows_are_the_commands():
    assert set(ROWS) == set(COMMANDS)


@pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "tab1", "offpath",
                                  "fig9b", "ablation-dm", "ablation-offpath"])
def test_cheap_rows_match_the_committed_file(name):
    _help, fn = COMMANDS[name]
    assert to_jsonable(fn()) == ROWS[name]


def test_paper_check_names_a_row_that_differs(tmp_path, monkeypatch, capsys):
    import repro.__main__ as cli

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "COMMANDS", {"tab1": COMMANDS["tab1"]})
    assert main(["paper"]) == 0
    written = json.loads((tmp_path / PAPER_JSON).read_text())
    assert written == {"experiment": "paper",
                       "results": {"tab1": ROWS["tab1"]}}
    assert main(["paper", "--check"]) == 0
    capsys.readouterr()

    ratio = ROWS["tab1"]["coremark_multi_ratio"]
    written["results"]["tab1"]["coremark_multi_ratio"] += 1.0
    (tmp_path / PAPER_JSON).write_text(json.dumps(written))
    assert main(["paper", "--check"]) == 1
    out = capsys.readouterr().out
    assert "tab1: differs from %s" % PAPER_JSON in out
    assert "  tab1.coremark_multi_ratio: %r -> %r\n" % (ratio + 1.0,
                                                        ratio) in out

    (tmp_path / PAPER_JSON).write_text(json.dumps(
        {"experiment": "paper", "results": {"fig2": ROWS["fig2"]}}))
    assert main(["paper", "--check"]) == 1
    out = capsys.readouterr().out
    assert "tab1: missing from %s" % PAPER_JSON in out
    assert "fig2: no command for its row in %s" % PAPER_JSON in out


# -- §3 characterization ---------------------------------------------------


def test_figure2_latency():
    """Figure 2 (§3.2): RDMA one-sided ops beat host-initiated LiquidIO
    ops; a NIC-initiated NIC RPC beats two-sided RDMA RPC and both NIC
    DMA ops; the host RPC is the slowest LiquidIO operation."""
    r = ROWS["fig2"]
    assert r["cx5_read"] < r["lio_read_from_host"]
    assert r["cx5_write"] < r["lio_write_from_host"]
    assert r["lio_nic_rpc_from_nic"] < r["cx5_rpc"]
    assert r["lio_nic_rpc_from_nic"] < min(r["lio_read_from_nic"],
                                           r["lio_write_from_nic"])
    assert r["lio_host_rpc_from_host"] == max(
        v for k, v in r.items() if k.startswith("lio_"))


def test_figure3_batching():
    """Figure 3 (§3.4): batching multiplies small-write throughput;
    unbatched writes stall near 10 Mops/s whatever the target; batched
    NIC-memory writes beat doorbell-batched RDMA."""
    r = ROWS["fig3"]
    for size in SIZES:
        assert r["nic_dram_batched"][size] > 2.0 * r["nic_dram_single"][size]
        assert (r["host_dram_batched"][size]
                > 1.5 * r["host_dram_single"][size])
        assert 6.0 <= r["nic_dram_single"][size] <= 12.0
        assert r["nic_dram_batched"][size] > r["cx5_rdma"][size]


def test_figure4_dma():
    """Figure 4 (§3.5): vectoring raises write throughput toward the
    ~8.7 Mops/s ceiling; reads complete slower than writes (~1.3 vs
    ~0.6 µs)."""
    tput, lat = ROWS["fig4"]["throughput"], ROWS["fig4"]["latency"]
    assert set(SIZES) <= set(tput["write_x15"])
    for size in tput["write_x15"]:
        assert tput["write_x15"][size] > tput["write_x1"][size]
        assert tput["write_x15"][size] <= 9.6
        assert lat["read_x1"][size] > lat["write_x1"][size]
        assert lat["write_x1"][size] < 1.5


def test_table1_cores():
    """Table 1: Xeon/ARM 3.26x multi-thread, 2.04x single-thread; the CPU
    model stretches a NIC job by the multi-thread ratio."""
    r = ROWS["tab1"]
    assert 3.0 < r["coremark_multi_ratio"] < 3.5
    assert 1.9 < r["coremark_single_ratio"] < 2.2
    assert abs(r["model_job_stretch"] - r["coremark_multi_ratio"]) < 0.01
    assert 0.28 < r["nic_host_core_ratio"] < 0.34


def test_offpath_penalty():
    """§3.1: on an off-path NIC, reaching host memory through the SoC
    costs more than a remote RDMA write straight to the host."""
    for device, r in ROWS["offpath"].items():
        assert r["remote_to_soc_write_us"] > r["remote_to_host_write_us"]
        assert r["offload_penalty_us"] > 0


# -- Table 2 ---------------------------------------------------------------


def test_table2_lookup():
    """Table 2: Robinhood reads far fewer objects than FaRM's H=8
    neighbourhood; a tighter Dm reads less; no limit never needs a second
    roundtrip; chained buckets trade read size for roundtrips."""
    by = {r["structure"]: r for r in ROWS["tab2"]}
    farm = by["FaRM Hopscotch, H=8"]
    assert (by["Xenic Robinhood, Dm=8"]["objects_read"]
            < 0.6 * farm["objects_read"])
    assert (by["Xenic Robinhood, Dm=8"]["objects_read"]
            < by["Xenic Robinhood, Dm=16"]["objects_read"]
            < by["Xenic Robinhood, no limit"]["objects_read"])
    assert by["Xenic Robinhood, no limit"]["roundtrips"] == 1.0
    assert (by["DrTM+H Chained, B=4"]["objects_read"]
            < by["DrTM+H Chained, B=8"]["objects_read"]
            < by["DrTM+H Chained, B=16"]["objects_read"])
    assert (by["DrTM+H Chained, B=4"]["roundtrips"]
            > by["DrTM+H Chained, B=16"]["roundtrips"])


# -- Figure 8 --------------------------------------------------------------


def test_figure8a_tpcc_new_order():
    """Figure 8a: Xenic > DrTM+H > DrTM+H-NC at peak, FaSST far below
    Xenic, and Xenic's low-load median is below DrTM+H's."""
    curves = ROWS["fig8a"]
    p, lat = peaks(curves), low_latencies(curves)
    assert p["xenic"] > p["drtmh"]
    assert p["xenic"] > 1.5 * p["fasst"]
    assert p["drtmh"] > p["drtmh_nc"]
    assert lat["xenic"] < lat["drtmh"]


def test_figure8b_tpcc_full():
    """Figure 8b: the mostly-local full mix sits below 60 µs at low load,
    and in the wire-bound regime Xenic's replication efficiency beats
    DrTM+R by more than 1.5x at peak."""
    curves = ROWS["fig8b"]
    p, lat = peaks(curves), low_latencies(curves)
    assert lat["xenic"] < 60.0
    assert p["xenic"] > 1.5 * p["drtmr"]


def test_figure8c_retwis():
    """Figure 8c: Xenic peaks over 1.5x DrTM+H.  Known deviation from the
    paper's -42%: the two PCIe crossings per transaction keep Xenic's
    read-heavy median within 1.25x of DrTM+H's one-sided reads; Xenic
    still beats FaSST's RPC latency (§5.4)."""
    curves = ROWS["fig8c"]
    p, lat = peaks(curves), low_latencies(curves)
    assert p["xenic"] > 1.5 * p["drtmh"]
    assert lat["xenic"] < 1.25 * lat["drtmh"]
    assert lat["xenic"] < lat["fasst"]


def test_figure8d_smallbank():
    """Figure 8d: Xenic peaks over DrTM+H and DrTM+R, with a low-load
    median no more than 5% above DrTM+H's pointer-cached reads."""
    curves = ROWS["fig8d"]
    p, lat = peaks(curves), low_latencies(curves)
    assert p["xenic"] > p["drtmh"]
    assert p["xenic"] > p["drtmr"]
    assert lat["xenic"] <= lat["drtmh"] * 1.05


# -- Table 3 and Figure 9 --------------------------------------------------


def test_table3_thread_counts():
    """Table 3: Xenic's normalized threads undercut FaSST on Retwis and
    Smallbank, FaSST needs at least DrTM+H's host threads, and TPC-C
    pushes Xenic onto more host threads than Smallbank."""
    r = ROWS["tab3"]
    for wl in ("retwis", "smallbank"):
        assert r[wl]["xenic_norm"] < r[wl]["fasst"]
        assert r[wl]["fasst"] >= r[wl]["drtmh"]
    assert r["tpcc_no"]["xenic_host"] > r["smallbank"]["xenic_host"]


def test_figure9a_throughput_ablation():
    """Figure 9a: smart remote ops raise Retwis throughput, the whole
    ladder gains over 1.3x, and async DMA keeps the aggregation gain."""
    by = dict(ROWS["fig9a"])
    base = by["Xenic baseline"]
    assert by["+Smart remote ops"] > base
    assert by["+Async DMA"] > 1.3 * base
    assert by["+Async DMA"] >= by["+Eth aggregation"] * 0.95


def test_figure9b_latency_ablation():
    """Figure 9b: each latency feature lowers Smallbank's low-load median
    (the OCC step within 2%), ending below DrTM+H."""
    by = dict(ROWS["fig9b"])
    assert by["+Smart remote ops"] < by["Xenic baseline"]
    assert by["+NIC execution"] < by["+Smart remote ops"]
    assert by["+OCC optimization"] <= by["+NIC execution"] * 1.02
    assert by["+OCC optimization"] < by["DrTM+H"]


# -- design ablations ------------------------------------------------------


def test_cache_capacity_sweep():
    """§4.3.3: a NIC cache below the hot set lowers the hit rate, costs
    over 1.3x throughput and raises the median."""
    rows = ROWS["ablation-cache"]
    assert rows[0]["hit_rate"] < rows[-1]["hit_rate"]
    assert rows[-1]["throughput"] > 1.3 * rows[0]["throughput"]
    assert rows[-1]["median_us"] < rows[0]["median_us"]


def test_displacement_limit_sweep():
    """§4.1.2: a larger Dm reads more objects per lookup but needs fewer
    roundtrips and overflows fewer keys."""
    rows = ROWS["ablation-dm"]
    objs = [r["objects_read"] for r in rows]
    rts = [r["roundtrips"] for r in rows]
    ovf = [r["overflow_frac"] for r in rows]
    assert objs == sorted(objs)
    assert rts == sorted(rts, reverse=True)
    assert ovf == sorted(ovf, reverse=True)


def test_offpath_platform_check():
    """§4.3.4: with the PCIe crossing at the off-path SoC-to-host costs,
    Xenic's latency edge goes, by more than 1.5x on BlueField."""
    r = ROWS["ablation-offpath"]
    assert r["onpath_liquidio"] < r["offpath_bluefield"]
    assert r["offpath_bluefield"] < r["offpath_stingray"]
    assert r["offpath_bluefield"] > 1.5 * r["onpath_liquidio"]
