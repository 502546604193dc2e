"""Tests for packet-level RX delivery, the CLI, and misc coverage gaps."""

import pytest

from repro.hw import EthernetPort, Fabric, NetMessage
from repro.sim import Simulator


def test_fabric_rx_packet_without_port_falls_back():
    sim = Simulator()
    fabric = Fabric(sim)
    got = []
    fabric.register(5, lambda m: got.append(m.kind))
    fabric.rx_packet(5, [NetMessage(0, 5, "a", 10), NetMessage(0, 5, "b", 10)])
    assert got == ["a", "b"]


def test_port_rx_serializes_packets():
    sim = Simulator()
    fabric = Fabric(sim)
    times = []
    p0 = EthernetPort(sim, fabric, 0, aggregation=False)
    p1 = EthernetPort(sim, fabric, 1)
    fabric.register(1, lambda m: times.append(sim.now))
    fabric.register(0, lambda m: None)
    for _ in range(3):
        p0.send(NetMessage(0, 1, "m", 64))
    sim.run()
    assert len(times) == 3
    assert p1.packets_received == 3
    # per-packet RX overhead spaces deliveries by >= 0.1us
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(g >= 0.099 for g in gaps)


def test_aggregated_packet_single_rx_overhead():
    sim = Simulator()
    fabric = Fabric(sim)
    times = []
    p0 = EthernetPort(sim, fabric, 0, aggregation=True)
    p1 = EthernetPort(sim, fabric, 1)
    fabric.register(1, lambda m: times.append(sim.now))
    fabric.register(0, lambda m: None)
    for _ in range(10):
        p0.send(NetMessage(0, 1, "m", 32))
    sim.run()
    assert len(times) == 10
    # messages in the same gather-list arrive together
    assert p1.packets_received < 10


def test_cli_list_and_unknown():
    from repro.__main__ import main

    assert main(["list"]) == 0
    assert main([]) == 0
    with pytest.raises(SystemExit):
        main(["definitely-not-a-command"])


def test_cli_every_subcommand_has_a_table_row(capsys):
    """``list`` and the dispatch read the same two tables the parser is
    built from: a subcommand with no row (or a row with no parser) is a
    command that parses but cannot run, or runs but is never listed."""
    import argparse

    from repro.__main__ import _TOOLS, COMMANDS, build_parser, main

    sub, = (a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(COMMANDS) | set(_TOOLS) | {"list"}
    main(["list"])
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert listed == list(COMMANDS) + list(_TOOLS)


def test_cli_help_lists_every_command(capsys):
    from repro.__main__ import COMMANDS, main

    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert "90% occupancy" in out
    assert all(name in out for name in COMMANDS)


@pytest.mark.parametrize("argv", [
    ["fig2", "--faults", "x"],
    ["tab1", "--trace-out", "f"],
    ["fig8d", "--jobs", "2"],
    ["fig8d", "--obs"],
])
def test_experiment_commands_take_only_json(argv, monkeypatch):
    """A run flag on an experiment command is a usage error, not a
    setting the experiment silently ignores: no row runs."""
    from repro import __main__ as cli

    def no_run(verbose=False):
        raise AssertionError("an experiment ran despite a usage error")

    monkeypatch.setattr(cli, "COMMANDS", {
        name: (help_text, no_run)
        for name, (help_text, _fn) in cli.COMMANDS.items()})
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_cli_tab1_runs():
    from repro.__main__ import main

    assert main(["tab1"]) == 0


def test_cli_offpath_runs():
    from repro.__main__ import main

    assert main(["offpath"]) == 0


def test_hardware_params_network_override():
    from repro.hw.params import TESTBED, testbed_params

    fifty = testbed_params(50.0)
    assert fifty.nic.eth.bandwidth_gbps == 50.0
    assert fifty.rdma.bandwidth_gbps == 50.0
    assert testbed_params(100.0) is TESTBED


def test_read_local_prefers_pending_commit():
    from repro.core import XenicCluster, XenicConfig
    from repro.store.log import LogRecord

    sim = Simulator()
    cluster = XenicCluster(sim, 3, config=XenicConfig(), keys_per_shard=128)
    for k in range(96):
        cluster.load_key(k, value="old")
    node = cluster.nodes[0]
    record = LogRecord(9, "commit", 0, [(0, "new", 1)])
    node.note_pending_commit(record)
    value, version = node.read_local(0)
    assert value == "new" and version == 1
    # other-shard records are ignored
    node.note_pending_commit(LogRecord(10, "commit", 1, [(1, "x", 5)]))
    assert 1 not in node.pending_local
