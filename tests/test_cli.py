import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qouter.canon import canonical_code
from qouter.cli import main
from qouter.constructions import cycle_extremal, path_join
from qouter.graph6 import graph6_decode, graph6_encode
from qouter.graphs import path, star
from qouter.harness import VerificationReport


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_cycle(capsys):
    code, out, err = run(capsys, "construct", "cycle", "--n", "7", "--pattern", "C4")
    assert code == 0
    expected, alpha, r = cycle_extremal(7, 4)
    assert canonical_code(graph6_decode(out.strip())) == canonical_code(expected)
    assert f"alpha={alpha} r={r}" in err


def test_construct_path(capsys):
    code, out, err = run(capsys, "construct", "path", "--n", "20", "--pattern", "2P3")
    assert code == 0
    assert "alpha=8 r=1" in err
    assert graph6_decode(out.strip()).n == 20


def test_construct_join(capsys):
    code, out, _ = run(capsys, "construct", "join", "--parts", "3,2,2")
    assert code == 0
    assert canonical_code(graph6_decode(out.strip())) == canonical_code(
        path_join([3, 2, 2])
    )


def test_construct_argument_errors(capsys):
    for argv, message in [
        (["construct", "join"], "construct join requires --parts"),
        (["construct", "join", "--parts", "2,x"], "--parts '2,x'"),
        (["construct", "cycle", "--pattern", "C4"], "requires --n and --pattern"),
        (["construct", "cycle", "--n", "7", "--pattern", "P4"], "needs a C<ell> pattern"),
        (["construct", "path", "--n", "7", "--pattern", "C4"], "needs a <t>P<ell> pattern"),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("qouter: error: ") and message in err, argv
        assert err.count("\n") == 1, argv


def test_spectral_from_file(tmp_path, capsys):
    source = tmp_path / "graphs.g6"
    source.write_text(graph6_encode(star(6)) + "\n" + graph6_encode(path(4)) + "\n")
    code, out, _ = run(capsys, "spectral", "--graph6", str(source))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    name, q, radius = lines[0].split(",")
    assert name == graph6_encode(star(6))
    assert float(q) == pytest.approx(6.0, abs=1e-9)
    assert 0 <= float(radius) <= 1e-10


def test_spectral_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(graph6_encode(star(6)) + "\n\n"))
    code, out, _ = run(capsys, "spectral", "--graph6", "-")
    assert code == 0
    name, q, _ = out.strip().split(",")
    assert name == graph6_encode(star(6)) and float(q) == pytest.approx(6.0, abs=1e-9)


def test_enumerate_stream_and_count(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "5", "--pattern", "C3")
    assert code == 0
    lines = out.strip().splitlines()
    graphs = [graph6_decode(line) for line in lines]
    assert len({canonical_code(g) for g in graphs}) == len(graphs)

    code, out, _ = run(capsys, "enumerate", "--n", "5", "--pattern", "C3",
                       "--count-only")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "n,pattern,count"
    assert row == f"5,C3,{len(graphs)}"


def test_ascend(tmp_path, capsys):
    source = tmp_path / "seed.g6"
    source.write_text(graph6_encode(path(6)) + "\n")
    code, out, _ = run(capsys, "ascend", "--graph6", str(source),
                       "--pattern", "C4")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 1
    record = payload[0]
    assert record["seed"] == graph6_encode(path(6))
    assert record["trace"], "ascent from a path should improve"
    qs = [step["q"] for step in record["trace"]]
    assert qs == sorted(qs)
    assert record["q_final"] == pytest.approx(qs[-1], abs=1e-9)


def test_verify_to_file(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "cycle", "--n", "6", "--pattern", "C3",
                       "--out", str(out_file))
    assert code == 0
    assert out == ""
    report = json.loads(out_file.read_text())
    assert report["status"] == "Confirmed"
    assert report["check_id"] == "cycle:n=6,ell=3"


@pytest.mark.parametrize("argv, check_id", [
    (["verify", "cycle", "--n", "6", "--pattern", "C3"], "cycle:n=6,ell=3"),
    (["lemma", "delta", "--n-min", "2", "--n-max", "5"], "lemma:delta"),
], ids=["verify", "lemma"])
def test_out_is_written_atomically(tmp_path, capsys, monkeypatch, argv, check_id):
    """--out writes through a temporary file beside the target and
    renames it, so a run cut short never leaves a partial report."""
    out_file = tmp_path / "r.json"
    code, out, _ = run(capsys, *argv, "--out", str(out_file))
    assert code == 0 and out == ""
    assert [f.name for f in tmp_path.iterdir()] == ["r.json"]  # no .part file left
    report = VerificationReport.from_json(out_file.read_text())
    assert (report.check_id, report.status) == (check_id, "Confirmed")
    # a run stopped before the rename keeps the old report whole
    out_file.write_text("old report")

    def stopped(*args):
        raise OSError("stopped before the rename")

    monkeypatch.setattr(os, "replace", stopped)
    code, out, err = run(capsys, *argv, "--out", str(out_file))
    assert code == 2 and err == "qouter: error: stopped before the rename\n"
    assert out_file.read_text() == "old report"


def test_verify_structural_stdout(capsys):
    code, out, _ = run(capsys, "verify", "structural", "--n", "6",
                       "--pattern", "C3")
    assert code == 0
    assert json.loads(out)["status"] == "Confirmed"


def test_lemma_subcommand(capsys):
    code, out, _ = run(capsys, "lemma", "delta", "--n-min", "2", "--n-max", "5")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "Confirmed"
    assert report["parameters"]["n_range"] == [2, 3, 4, 5]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_reports_are_strict_json(tmp_path, capsys):
    """A margin of inf (nothing to separate) and a sep of inf are written
    as null, which a strict parser reads; Infinity is not JSON (RFC 8259)."""
    for argv in (["verify", "cycle", "--n", "3", "--pattern", "C3"],
                 ["lemma", "edgemove", "--n-min", "3", "--n-max", "3"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        assert json.loads(out, parse_constant=_reject_constant)["margin"] is None, argv
    for argv in (["verify", "cycle", "--n", "5", "--pattern", "C4"],
                 ["lemma", "qmu", "--n-min", "2", "--n-max", "4"]):
        code, out, _ = run(capsys, *argv, "--sep", "inf")
        assert code == 0, argv
        assert json.loads(out, parse_constant=_reject_constant)["parameters"]["sep"] is None, argv
    cfg = tmp_path / "c.cfg"
    cfg.write_text("checks = cycle, lemma:qmu\nn_min = 5\nn_max = 5\nsep = inf\n"
                   f"out = {tmp_path / 'reports'}\n")
    assert run(capsys, "campaign", str(cfg))[0] == 0
    reports = sorted((tmp_path / "reports").glob("*.json"))
    assert len(reports) == 4
    for report in reports:
        data = json.loads(report.read_text(), parse_constant=_reject_constant)
        assert data["parameters"]["sep"] is None, report


def test_lemma_needs_both_bounds(capsys):
    for bound in ("--n-min", "--n-max"):
        code, out, err = run(capsys, "lemma", "perron", bound, "3")
        assert code == 2 and out == ""
        assert err == "qouter: error: lemma requires both --n-min and --n-max, or neither\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lemma", "claim41", "--n-min", "2", "--n-max", "5"], "needs orders in 6..40"),
        (["verify", "cycle", "--n", "4", "--pattern", "C5"], "ell <= n"),
        (["enumerate", "--n", "11"], "1 <= n <= 10"),
        (["enumerate", "--n", "0", "--count-only"], "1 <= n <= 10"),
        (["enumerate", "--n", "5", "--pattern", "X7"], "cannot parse pattern"),
        (["verify", "cycle", "--n", "6", "--pattern", "C4", "--sep", "-1"],
         "sep must be nonnegative"),
        (["verify", "cycle", "--n", "6", "--pattern", "C4", "--sep", "nan"],
         "sep must be nonnegative"),
        (["verify", "cycle", "--n", "5", "--pattern", "2P4"], "needs a C<ell> pattern"),
        (["verify", "path", "--n", "6", "--pattern", "C4"], "needs a <t>P<ell> pattern"),
        (["lemma", "obv", "--n-min", "1", "--n-max", "3"], "needs orders in 2..10"),
        (["lemma", "delta", "--n-min", "1", "--n-max", "1"], "needs orders in 2..9"),
        (["verify", "path", "--n", "8", "--pattern", "P3"],
         "needs a <t>P<ell> pattern with t >= 2 or ell >= 4, and t*ell <= n - 1 and 1 <= n <= 10"),
        # order 10 of the connected graphs is never generated
        (["lemma", "delta", "--n-min", "10", "--n-max", "10"], "needs orders in 2..9, got [10]"),
    ],
)
def test_usage_errors_exit_with_one_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("qouter: error: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["spectral", "ascend"])
def test_bad_graph6_exits_with_one_line(tmp_path, capsys, command):
    source = tmp_path / "bad.g6"
    source.write_text(graph6_encode(path(4)) + "\n\nzz~\n")
    code, out, err = run(capsys, command, "--graph6", str(source))
    assert code == 2 and out == ""
    assert err.startswith(f"qouter: error: {source} line 3: 'zz~'")
    assert err.count("\n") == 1


@pytest.mark.parametrize("line, order", [("?", 0), ("~?@@", 65)])
def test_graph6_order_outside_1_to_64_exits_with_one_line(tmp_path, capsys, line, order):
    source = tmp_path / "orders.g6"
    source.write_text(graph6_encode(path(4)) + "\n" + line + "\n")
    code, out, err = run(capsys, "spectral", "--graph6", str(source))
    assert code == 2 and out == ""
    assert err == f"qouter: error: {source} line 2: {line!r}: graph6 order {order} outside 1..64\n"


@pytest.mark.parametrize("line, byte", [(chr(127) + "?" * 336, chr(127)), ("!", "!"),
                                        ("~?" + chr(127) + "@", chr(127))],
                         ids=["del", "bang", "long-form-del"])
def test_graph6_size_byte_outside_the_alphabet_exits_with_one_line(tmp_path, capsys, line, byte):
    source = tmp_path / "sizes.g6"
    source.write_text(graph6_encode(path(4)) + "\n" + line + "\n")
    code, out, err = run(capsys, "spectral", "--graph6", str(source))
    assert code == 2 and out == ""
    assert err == f"qouter: error: {source} line 2: {line!r}: invalid graph6 character {byte!r}\n"


@pytest.mark.parametrize("argv", [
    ["spectral", "--graph6", "{missing}/nope.g6"],
    ["ascend", "--graph6", "{missing}/nope.g6"],
    ["campaign", "{missing}/nope.cfg"],
    ["verify", "cycle", "--n", "5", "--pattern", "C4", "--out", "{missing}/r.json"],
], ids=["spectral", "ascend", "campaign", "verify"])
def test_missing_file_exits_with_one_line(tmp_path, capsys, argv):
    """A file that cannot be read or written is a usage error (exit 2),
    not a Refuted check (exit 1)."""
    missing = tmp_path / "missing_dir"
    code, out, err = run(capsys, *(arg.format(missing=missing) for arg in argv))
    assert code == 2 and out == ""
    assert err.startswith("qouter: error: ") and str(missing) in err
    assert err.count("\n") == 1


def test_header_only_graph6_exits_with_one_line(tmp_path, capsys):
    source = tmp_path / "header.g6"
    source.write_text(">>graph6<<\n")
    code, out, err = run(capsys, "spectral", "--graph6", str(source))
    assert code == 2 and out == ""
    assert err == f"qouter: error: {source} line 1: '>>graph6<<': empty graph6 string\n"


@pytest.mark.parametrize("text", ["", graph6_encode(path(6)) + "\n"], ids=["empty", "one-graph"])
def test_negative_max_steps_exits_with_one_line(tmp_path, capsys, text):
    source = tmp_path / "seed.g6"
    source.write_text(text)
    code, out, err = run(capsys, "ascend", "--graph6", str(source), "--max-steps", "-3")
    assert code == 2 and out == ""
    assert err == "qouter: error: max_steps must be >= 0, got -3\n"


def test_campaign_config_error_exits_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("checks = cycle\nbogus = 1\n")
    code, out, err = run(capsys, "campaign", str(cfg))
    assert code == 2 and out == ""
    assert err == "qouter: error: line 2: unknown key 'bogus'\n"


def test_campaign_subcommand(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("checks = cycle\nn_min = 5\nn_max = 5\n"
                   f"out = {tmp_path / 'reports'}\n")
    code, out, _ = run(capsys, "campaign", str(cfg))
    assert code == 0
    assert "summary.csv" in out


def test_unknown_command_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "qouter", "campaign", "--help"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: qouter campaign")


def test_campaign_without_cells_exits_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"checks = path\nn_min = 9\nn_max = 11\nout = {tmp_path / 'reports'}\n")
    code, out, err = run(capsys, "campaign", str(cfg))
    assert code == 2 and out == ""
    assert err == ("qouter: error: check 'path' needs orders in 1..10 with at least one cell, "
                   "got n_min=9, n_max=11\n")
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize("checks", ["", "checks = ,\n"])
def test_campaign_without_checks_exits_with_one_line(tmp_path, capsys, checks):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{checks}n_min = 5\nn_max = 5\nout = {tmp_path / 'reports'}\n")
    code, out, err = run(capsys, "campaign", str(cfg))
    assert code == 2 and out == ""
    assert err == "qouter: error: no checks to run: give at least one in 'checks = ...'\n"
    assert not (tmp_path / "reports").exists()
