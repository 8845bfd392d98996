import json

import pytest

from qouter import harness
from qouter.canon import canonical_code
from qouter.constructions import cycle_extremal
from qouter.errors import ConfigError, ParameterError
from qouter.graph6 import graph6_decode
from qouter.graphs import path, star
from qouter.harness import (
    CONFIRMED,
    OUT_OF_SCOPE,
    REFUTED,
    VerificationReport,
    check_lemma,
    parse_campaign_config,
    run_campaign,
    structural_check,
    verify_cycle_theorem,
    verify_path_theorem,
)
from qouter.recognition import ForbiddenPattern


def test_report_json_roundtrip():
    report = VerificationReport(
        check_id="cycle:n=7,ell=4",
        parameters={"n": 7, "ell": 4},
        status=CONFIRMED,
        witness_graphs=["Dhc"],
        q_values=[6.16],
        margin=0.11,
        runtime_ms=12,
        notes=["note"],
    )
    again = VerificationReport.from_json(report.to_json())
    assert again == report
    assert json.loads(report.to_json())["status"] == CONFIRMED


def test_verify_cycle_theorem_confirms():
    report = verify_cycle_theorem(7, 4)
    assert report.status == CONFIRMED
    assert report.margin > 1e-9
    expected, _, _ = cycle_extremal(7, 4)
    assert len(report.witness_graphs) == 1
    witness = graph6_decode(report.witness_graphs[0])
    assert canonical_code(witness) == canonical_code(expected)
    assert report.runtime_ms >= 0


def test_verify_cycle_theorem_sep_zero():
    # sep = 0 asks only for disjoint enclosures; it is not an invalid tolerance
    report = verify_cycle_theorem(5, 4, sep=0)
    assert report.status == CONFIRMED
    assert report.margin > 0


def test_verify_cycle_theorem_validation():
    with pytest.raises(ParameterError):
        verify_cycle_theorem(4, 5)
    with pytest.raises(ParameterError):
        verify_cycle_theorem(20, 4)


def test_verify_path_theorem_star_cells():
    # at these cells the candidate degenerates to the star, which the
    # star theorem makes the unique maximizer, so the check confirms
    for n, t, ell in [(6, 1, 4), (6, 2, 2)]:
        report = verify_path_theorem(n, t, ell)
        assert report.status == CONFIRMED
        assert report.parameters["local_max"] is True
        witness = graph6_decode(report.witness_graphs[0])
        assert canonical_code(witness) == canonical_code(star(n))


def test_verify_path_theorem_flags_discrepancy():
    # (n, t, ell) = (8, 2, 3): the printed closed form breaks the
    # part-sum identity, which every affected report must mention
    report = verify_path_theorem(8, 2, 3)
    assert report.status in (CONFIRMED, OUT_OF_SCOPE)
    assert any("part-sum" in note for note in report.notes)


def test_structural_check():
    report = structural_check(6, ForbiddenPattern.cycle(3))
    assert report.status == CONFIRMED
    with pytest.raises(ParameterError):
        structural_check(6, ForbiddenPattern.cycle(8))


def test_pair_disjointness_needs_adjacency():
    """Finding: the common-neighbor-pair disjointness statement is false
    without an edge between the two vertices. C6 = 0-1-3-5-4-2-0 plus the
    chord 0-5 is outerplanar, yet the nonadjacent vertices 3 and 4 both
    share two common neighbors with 0 and those pairs overlap in 5. The
    structure suite therefore checks the adjacency-restricted form and
    reports the literal exceptions in its notes."""
    from qouter.recognition import common_neighbors, is_outerplanar

    g = graph6_decode("EqIW")
    assert is_outerplanar(g) and g.is_connected()
    assert not g.has_edge(3, 4)
    assert not g.has_edge(0, 3) and not g.has_edge(0, 4)
    assert common_neighbors(g, 0, 3) == (1, 5)
    assert common_neighbors(g, 0, 4) == (2, 5)

    report = check_lemma("obv", range(6, 7))
    assert report.status == CONFIRMED
    assert any("adjacent vertex pairs" in note for note in report.notes)


def test_check_lemma_small_ranges():
    for name in ("obv", "addedges", "delta", "qmu"):
        report = check_lemma(name, range(2, 6))
        assert report.status == CONFIRMED, (name, report.notes)
    report = check_lemma("edgeshift", range(2, 7))
    assert report.status == CONFIRMED
    with pytest.raises(ParameterError):
        check_lemma("nonsense")


def test_campaign_config_parsing(tmp_path):
    cfg_file = tmp_path / "campaign.cfg"
    cfg_file.write_text(
        "# comment\n"
        "checks = cycle, lemma:delta\n"
        "n_min = 5\n"
        "n_max = 5\n"
        "sep = 1e-8\n"
        "jobs = 2\n"
        f"out = {tmp_path / 'reports'}\n"
    )
    cfg = parse_campaign_config(cfg_file)
    assert cfg.checks == ["cycle", "lemma:delta"]
    assert cfg.n_min == cfg.n_max == 5
    assert cfg.sep == 1e-8
    assert cfg.jobs == 2


def test_campaign_config_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("checks = cycle\nwat\n")
    with pytest.raises(ConfigError) as err:
        parse_campaign_config(bad)
    assert "line 2" in str(err.value)
    bad.write_text("mystery = 1\n")
    with pytest.raises(ConfigError):
        parse_campaign_config(bad)
    bad.write_text("n_min = x\n")
    with pytest.raises(ConfigError):
        parse_campaign_config(bad)
    bad.write_text("checks = warpdrive\n")
    with pytest.raises(ConfigError):
        run_campaign(bad)


def test_run_campaign(tmp_path):
    cfg_file = tmp_path / "campaign.cfg"
    cfg_file.write_text(
        "checks = cycle\n"
        "n_min = 5\n"
        "n_max = 5\n"
        f"out = {tmp_path / 'reports'}\n"
    )
    code, files = run_campaign(cfg_file)
    assert code == 0
    names = [f.name for f in files]
    assert "summary.csv" in names
    # one report per (n=5, ell in 3..5) plus the summary
    assert len(files) == 4
    for f in files:
        assert f.exists()
    report = VerificationReport.from_json(
        (tmp_path / "reports" / "cycle_n5_ell3.json").read_text()
    )
    assert report.status == CONFIRMED
    summary = (tmp_path / "reports" / "summary.csv").read_text()
    assert summary.count(CONFIRMED) == 3


def test_run_campaign_parallel_matches_serial(tmp_path):
    serial = tmp_path / "serial.cfg"
    serial.write_text("checks = cycle\nn_min = 5\nn_max = 5\n"
                      f"out = {tmp_path / 'r1'}\n")
    parallel = tmp_path / "parallel.cfg"
    parallel.write_text("checks = cycle\nn_min = 5\nn_max = 5\njobs = 3\n"
                        f"out = {tmp_path / 'r2'}\n")
    code1, files1 = run_campaign(serial)
    code2, files2 = run_campaign(parallel)
    assert code1 == code2 == 0
    for f1, f2 in zip(sorted(files1), sorted(files2)):
        if f1.name == "summary.csv":
            continue
        r1 = VerificationReport.from_json(f1.read_text())
        r2 = VerificationReport.from_json(f2.read_text())
        assert (r1.status, r1.witness_graphs) == (r2.status, r2.witness_graphs)


def test_refuted_construction_fails_campaign(tmp_path, monkeypatch):
    """Negative control: a deliberately wrong candidate must be Refuted."""

    def wrong_candidate(n, ell):
        return path(n), 0, 0

    monkeypatch.setattr(harness, "cycle_extremal", wrong_candidate)
    report = verify_cycle_theorem(5, 3)
    assert report.status == REFUTED

    cfg_file = tmp_path / "campaign.cfg"
    cfg_file.write_text(
        "checks = cycle\nn_min = 5\nn_max = 5\n" f"out = {tmp_path / 'reports'}\n"
    )
    code, _ = run_campaign(cfg_file)
    assert code == 1
