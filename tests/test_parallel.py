"""Tests for ``fan_out``, the one process pool: ``--jobs N`` output must
be byte-identical to serial, for chaos seeds and for paper rows."""

from functools import partial

from repro import __main__ as cli
from repro.__main__ import COMMANDS, PAPER_JSON, main
from repro.bench.chaos import run_chaos
from repro.bench.parallel import fan_out


def test_parallel_chaos_seeds_match_serial():
    run_seed = partial(run_chaos, "xenic", n_txns=8, n_nodes=3)
    serial = fan_out(run_seed, (1, 2, 3), 1)
    parallel = fan_out(run_seed, (1, 2, 3), 3)
    assert [r.seed for r in parallel] == [1, 2, 3]
    for a, b in zip(serial, parallel):
        assert (a.commits, a.aborts, a.violations) == \
            (b.commits, b.aborts, b.violations)


def test_paper_jobs2_writes_the_jobs1_file(tmp_path, monkeypatch, capsys):
    """Rows fanned across two workers write the serial run's file byte
    for byte and print its tables in table order."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "COMMANDS", {
        name: COMMANDS[name] for name in ("fig2", "tab1", "offpath",
                                          "ablation-dm")})
    written, printed = [], []
    for jobs in ("1", "2"):
        assert main(["paper", "--jobs", jobs]) == 0
        written.append((tmp_path / PAPER_JSON).read_bytes())
        printed.append(capsys.readouterr().out)
    assert written[0] == written[1]
    assert printed[0] == printed[1]
    headers = [line for line in printed[0].splitlines()
               if line.startswith("### ")]
    assert headers == ["### " + COMMANDS[name][0] for name in
                       ("fig2", "tab1", "offpath", "ablation-dm")]
