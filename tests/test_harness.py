import json
import math
from itertools import groupby

import pytest

from qouter import harness, spectral
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
from qouter.spectral import SpectralResult


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


@pytest.mark.parametrize("sep", [-1.0, float("nan")])
def test_bad_sep_is_rejected(sep):
    # a NaN sep once excluded nothing and certified a 19-way Tie
    for check in (lambda: verify_cycle_theorem(6, 4, sep),
                  lambda: check_lemma("obv", [4], sep),
                  lambda: check_lemma("claim41", [6], sep)):
        with pytest.raises(ParameterError, match="sep must be nonnegative"):
            check()


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


@pytest.mark.parametrize("name", harness.LEMMA_NAMES)
@pytest.mark.parametrize("n_range", [[], [0]])
def test_check_lemma_rejects_ranges_outside_domain(name, n_range):
    with pytest.raises(ParameterError):
        check_lemma(name, n_range)


def test_check_lemma_rejects_orders_outside_domain():
    # claim41 is stated for 6 <= n <= 40, qmu needs an edge
    for name, n_range in [("claim41", range(2, 5)), ("claim41", range(6, 42)),
                          ("qmu", range(1, 4)), ("obv", [11])]:
        with pytest.raises(ParameterError):
            check_lemma(name, n_range)


@pytest.mark.parametrize("name, n_range, count", [
    ("perron", range(3, 7), 582),
    ("edgemove2", range(3, 8), 57),
    ("edgemove3", range(4, 8), 127),
    ("edgemove", range(7, 8), 9),
    # one instance per (connected graph, non-edge) pair
    ("addedges", range(2, 6), 92),
])
def test_move_suite_instance_counts(name, n_range, count):
    report = check_lemma(name, n_range)
    assert report.status == CONFIRMED
    assert report.notes == [f"instances checked: {count}"]


def test_move_suite_report_does_not_depend_on_the_stack_size(monkeypatch):
    """Stacks of 16 order-7 matrices make the perron suite flush hundreds
    of times; its report equals the one at the default stack size."""
    flushes = []
    monkeypatch.setattr(harness, "q_indices",
                        lambda graphs: flushes.append(1) or spectral.q_indices(graphs))
    reports = []
    for entries in (16 * 7 * 7, spectral._STACK_ENTRIES):
        monkeypatch.setattr(spectral, "_STACK_ENTRIES", entries)
        monkeypatch.setattr(spectral, "_cache", {})
        flushes.clear()
        report = check_lemma("perron", range(3, 8))
        reports.append((report.status, report.notes, report.margin, len(flushes)))
    (*small, small_flushes), (*default, default_flushes) = reports
    assert small == default
    assert small_flushes > 300 > 10 * default_flushes


def test_claim41_names_the_first_entry_outside_and_slack_before_it(monkeypatch):
    """With some Perron entries pushed out of the interval, the report
    matches an entry-by-entry scan: the first entry outside is named, and
    the slack covers only the entries before it."""

    def perturbed(graphs):
        results = []
        for i, res in enumerate(spectral.q_indices(graphs)):
            x = res.vector.copy()
            if i % 3 == 1:  # two entries outside, the later one below
                x[-2] = 0.0
                x[i % (len(x) - 2)] *= 40
            elif i % 3 == 2:
                x[(i + 2) % (len(x) - 1)] = 0.0
            results.append(SpectralResult(res.q, x, res.radius, res.connected))
        return results

    monkeypatch.setattr(harness, "q_indices", perturbed)
    report = check_lemma("claim41", range(6, 10))
    violations, slack, count = [], math.inf, 0
    for _, specs in groupby(harness.claim41_specs(6, 9), key=lambda spec: spec.order):
        joins = [harness.path_join(spec) for spec in specs]
        count += len(joins)
        for g, res in zip(joins, perturbed(joins)):
            x = res.vector / res.vector[g.n - 1]
            lo, hi = 1 / res.q, 1 / res.q + 30 / (res.q * res.q)
            for v in range(g.n - 1):
                if not lo < x[v] < hi:
                    violations.append(f"entry x_{v}={x[v]} outside ({lo}, {hi})")
                    break
                slack = min(slack, x[v] - lo, hi - x[v])
    assert len(violations) > 20
    assert report.status == REFUTED
    assert report.notes == [f"specs checked: {count}"] + violations[:20]
    assert report.margin == slack


def test_campaign_config_parsing(tmp_path):
    cfg_file = tmp_path / "campaign.cfg"
    cfg_file.write_text(
        "# comment\n"
        "checks = cycle, lemma:delta\n"
        "n_min = 5\n"
        "n_max = 5\n"
        "sep = 1e-8\n"
        f"out = {tmp_path / 'reports'}\n"
    )
    cfg = parse_campaign_config(cfg_file)
    assert cfg.checks == ["cycle", "lemma:delta"]
    assert cfg.n_min == cfg.n_max == 5
    assert cfg.sep == 1e-8
    # campaigns run serially; there is no worker count to set
    cfg_file.write_text("checks = cycle\njobs = 2\n")
    with pytest.raises(ConfigError) as err:
        parse_campaign_config(cfg_file)
    assert "line 2" in str(err.value) and "jobs" in str(err.value)
    for text, message in [
        ("sep = -1\n", "line 1: sep must be nonnegative"),
        ("checks = cycle\nsep = nan\n", "line 2: sep must be nonnegative"),
        # an empty order range would write an empty summary and pass
        ("n_min = 6\nn_max = 5\n", "need 1 <= n_min <= n_max"),
        ("n_min = 0\nn_max = 5\n", "need 1 <= n_min <= n_max"),
    ]:
        cfg_file.write_text(text)
        with pytest.raises(ConfigError, match=message):
            parse_campaign_config(cfg_file)


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


def _campaign(tmp_path, text):
    cfg_file = tmp_path / "campaign.cfg"
    cfg_file.write_text(text + f"out = {tmp_path / 'reports'}\n")
    return cfg_file


@pytest.mark.parametrize("text, token", [
    # path cells exist up to n = 10 only; n = 9..10 used to run, then fail
    ("checks = cycle, path\nn_min = 9\nn_max = 11\n", "cycle"),
    ("checks = lemma:delta, path\nn_min = 9\nn_max = 11\n", "path"),
    # no cell at all: no path cell has t*ell <= 3, no cycle cell has n < 3
    ("checks = path\nn_min = 4\nn_max = 4\n", "path"),
    ("checks = cycle\nn_min = 1\nn_max = 2\n", "cycle"),
    ("checks = structural\nn_min = 1\nn_max = 2\n", "structural"),
])
def test_campaign_rejects_cells_it_cannot_run_before_running_any(tmp_path, monkeypatch, text, token):
    ran = []
    for name in ("verify_cycle_theorem", "verify_path_theorem", "structural_check", "check_lemma"):
        monkeypatch.setattr(harness, name, lambda *args, **kw: ran.append(args))
    with pytest.raises(ConfigError, match=f"check '{token}' needs orders in 1..10 with at least "
                                          "one cell"):
        run_campaign(_campaign(tmp_path, text))
    assert not ran
    assert not (tmp_path / "reports").exists()


def test_campaign_writes_each_report_as_its_check_finishes(tmp_path, monkeypatch):
    real = harness.verify_cycle_theorem
    calls = []

    def second_fails(*args):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("second check fails")
        return real(*args)

    monkeypatch.setattr(harness, "verify_cycle_theorem", second_fails)
    with pytest.raises(RuntimeError, match="second check fails"):
        run_campaign(_campaign(tmp_path, "checks = cycle\nn_min = 5\nn_max = 5\n"))
    written = sorted(f.name for f in (tmp_path / "reports").iterdir())
    assert written == ["cycle_n5_ell3.json"]
    report = VerificationReport.from_json((tmp_path / "reports" / written[0]).read_text())
    assert report.check_id == "cycle:n=5,ell=3" and report.status == CONFIRMED


# The campaign's cells for checks = cycle, path, structural at n = 4..10,
# as the campaign listed them before structural cells reached n = 10.
CELLS_4_TO_10 = """
cycle:n=4,ell=3 cycle:n=4,ell=4 cycle:n=5,ell=3 cycle:n=5,ell=4 cycle:n=5,ell=5
cycle:n=6,ell=3 cycle:n=6,ell=4 cycle:n=6,ell=5 cycle:n=6,ell=6 cycle:n=7,ell=3
cycle:n=7,ell=4 cycle:n=7,ell=5 cycle:n=7,ell=6 cycle:n=7,ell=7 cycle:n=8,ell=3
cycle:n=8,ell=4 cycle:n=8,ell=5 cycle:n=8,ell=6 cycle:n=8,ell=7 cycle:n=8,ell=8
cycle:n=9,ell=3 cycle:n=9,ell=4 cycle:n=9,ell=5 cycle:n=9,ell=6 cycle:n=9,ell=7
cycle:n=9,ell=8 cycle:n=9,ell=9 cycle:n=10,ell=3 cycle:n=10,ell=4 cycle:n=10,ell=5
cycle:n=10,ell=6 cycle:n=10,ell=7 cycle:n=10,ell=8 cycle:n=10,ell=9 cycle:n=10,ell=10
path:n=5,t=1,ell=4 path:n=5,t=2,ell=2 path:n=6,t=1,ell=4 path:n=6,t=1,ell=5
path:n=6,t=2,ell=2 path:n=7,t=1,ell=4 path:n=7,t=1,ell=5 path:n=7,t=1,ell=6
path:n=7,t=2,ell=2 path:n=7,t=2,ell=3 path:n=8,t=1,ell=4 path:n=8,t=1,ell=5
path:n=8,t=1,ell=6 path:n=8,t=2,ell=2 path:n=8,t=2,ell=3 path:n=9,t=1,ell=4
path:n=9,t=1,ell=5 path:n=9,t=1,ell=6 path:n=9,t=2,ell=2 path:n=9,t=2,ell=3
path:n=10,t=1,ell=4 path:n=10,t=1,ell=5 path:n=10,t=1,ell=6 path:n=10,t=2,ell=2
path:n=10,t=2,ell=3 structural:n=4,pattern=C3 structural:n=4,pattern=C4
structural:n=5,pattern=C3 structural:n=5,pattern=C4 structural:n=5,pattern=C5
structural:n=5,pattern=P4 structural:n=5,pattern=2P2 structural:n=6,pattern=C3
structural:n=6,pattern=C4 structural:n=6,pattern=C5 structural:n=6,pattern=C6
structural:n=6,pattern=P4 structural:n=6,pattern=P5 structural:n=6,pattern=2P2
structural:n=7,pattern=C3 structural:n=7,pattern=C4 structural:n=7,pattern=C5
structural:n=7,pattern=C6 structural:n=7,pattern=C7 structural:n=7,pattern=P4
structural:n=7,pattern=P5 structural:n=7,pattern=P6 structural:n=7,pattern=2P2
structural:n=7,pattern=2P3 structural:n=8,pattern=C3 structural:n=8,pattern=C4
structural:n=8,pattern=C5 structural:n=8,pattern=C6 structural:n=8,pattern=C7
structural:n=8,pattern=C8 structural:n=8,pattern=P4 structural:n=8,pattern=P5
structural:n=8,pattern=P6 structural:n=8,pattern=2P2 structural:n=8,pattern=2P3
structural:n=9,pattern=C3 structural:n=9,pattern=C4 structural:n=9,pattern=C5
structural:n=9,pattern=C6 structural:n=9,pattern=C7 structural:n=9,pattern=C8
structural:n=9,pattern=C9 structural:n=9,pattern=P4 structural:n=9,pattern=P5
structural:n=9,pattern=P6 structural:n=9,pattern=2P2 structural:n=9,pattern=2P3
""".split()
STRUCTURAL_AT_10 = [f"structural:n=10,pattern={p}" for p in (
    "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10", "P4", "P5", "P6", "2P2", "2P3")]


def test_campaign_cell_list_is_pinned(tmp_path):
    cfg = parse_campaign_config(
        _campaign(tmp_path, "checks = cycle, path, structural\nn_min = 4\nn_max = 10\n"))
    assert [check_id for check_id, _ in harness._campaign_tasks(cfg)] == (
        CELLS_4_TO_10 + STRUCTURAL_AT_10)


# One report per kind at n = 7, and the Tie and the Refuted cell at n = 4,
# as the three separate check functions wrote them (runtime_ms aside).
PINNED_REPORTS = [
    (lambda: verify_cycle_theorem(7, 4), {
        "check_id": "cycle:n=7,ell=4",
        "parameters": {"n": 7, "ell": 4, "alpha": 3, "r": 0, "sep": 1e-09},
        "status": "Confirmed", "witness_graphs": ["Fsqc_"],
        "q_values": [7.372281323269014], "margin": 0.11349565017828134, "notes": []}),
    (lambda: verify_path_theorem(7, 2, 3), {
        "check_id": "path:n=7,t=2,ell=3",
        "parameters": {"n": 7, "t": 2, "ell": 3, "alpha": 2, "r": 0, "sep": 1e-09,
                       "local_max": True},
        "status": "Confirmed", "witness_graphs": ["Fsqc_"],
        "q_values": [7.372281323269014, 7.3722813232690125], "margin": 0.11349565017828134,
        "notes": ["printed closed-form parameters fail the part-sum identity; "
                  "canonical decomposition used"]}),
    (lambda: structural_check(7, ForbiddenPattern.cycle(4)), {
        "check_id": "structural:n=7,pattern=C4",
        "parameters": {"n": 7, "pattern": "C4", "sep": 1e-09},
        "status": "Confirmed", "witness_graphs": ["Fsqc_"],
        "q_values": [7.372281323269014], "margin": 0.11349565017828134, "notes": []}),
    (lambda: verify_cycle_theorem(4, 3), {
        "check_id": "cycle:n=4,ell=3",
        "parameters": {"n": 4, "ell": 3, "alpha": 3, "r": 0, "sep": 1e-09},
        "status": "Tie", "witness_graphs": ["Cs", "Cr"],
        "q_values": [4.0], "margin": 0.585786437626906,
        "notes": ["candidate is co-maximal but not separated"]}),
    (lambda: structural_check(4, ForbiddenPattern.cycle(3)), {
        "check_id": "structural:n=4,pattern=C3",
        "parameters": {"n": 4, "pattern": "C3", "sep": 1e-09},
        "status": "Refuted", "witness_graphs": ["Cr"],
        "q_values": [4.0], "margin": 0.585786437626906,
        "notes": ["winner lacks a universal vertex with path neighborhood"]}),
]


@pytest.mark.parametrize("check, expected", PINNED_REPORTS,
                         ids=[want["check_id"] for _, want in PINNED_REPORTS])
def test_theorem_reports_are_pinned(check, expected):
    report = check().to_dict()
    del report["runtime_ms"]
    assert list(report) == list(expected)
    for key, want in expected.items():
        if key in ("q_values", "margin"):
            assert report[key] == pytest.approx(want, rel=0, abs=1e-12), key
        else:
            assert report[key] == want, key
    assert list(report["parameters"]) == list(expected["parameters"])


def test_path_miss_is_out_of_scope(monkeypatch):
    """Below its order threshold a path cell may lose to another graph:
    that is OutOfScope with the data, never Refuted."""
    monkeypatch.setattr(harness, "path_extremal", lambda n, t, ell: (path(n), 0, 0, False))
    report = verify_path_theorem(7, 1, 4)
    assert report.status == OUT_OF_SCOPE
    assert report.witness_graphs and len(report.q_values) == 2
    assert report.notes[-1].startswith("argmax differs from candidate at sub-threshold order")


def test_every_kind_has_one_order_domain():
    for kind, check in [("cycle", lambda n: verify_cycle_theorem(n, 3)),
                        ("path", lambda n: verify_path_theorem(n, 1, 4)),
                        ("structural", lambda n: structural_check(n, ForbiddenPattern.cycle(3)))]:
        with pytest.raises(ParameterError, match=f"{kind} check needs .* and 1 <= n <= 10"):
            check(11)
        assert harness.THEOREMS[kind].cells(10)
