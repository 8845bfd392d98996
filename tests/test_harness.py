import csv
import json
import math

import numpy as np
import pytest

from qouter import harness, spectral
from qouter.canon import canonical_code
from qouter.cli import main
from qouter.constructions import cycle_extremal, path_extremal
from qouter.errors import ConfigError, ParameterError
from qouter.graph6 import graph6_decode, graph6_encode
from qouter.graphs import complete, from_edges, path, star
from qouter.harness import (
    CONFIRMED,
    ERROR,
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
from qouter.transforms import greedy_ascent


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
    report.margin = math.inf
    assert json.loads(report.to_json())["margin"] is None
    assert VerificationReport.from_json(report.to_json()) == report


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
        candidate, _, _ = path_extremal(n, t, ell)
        assert greedy_ascent(candidate, ForbiddenPattern.paths(t, ell))[1] == []
        witness = graph6_decode(report.witness_graphs[0])
        assert canonical_code(witness) == canonical_code(star(n))


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


OBV_VIOLATIONS = [
    (complete(4), [
        "e=6 exceeds 2n-3 at n=4",
        "N(0) is not a union of paths",
        "N(1) is not a union of paths",
        "N(2) is not a union of paths",
        "N(3) is not a union of paths",
    ]),
    (from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]), [
        "pair-disjointness holds only for adjacent vertex pairs; 3 unrestricted "
        "exceptions, e.g. D]o (nonadjacent 3,4 share a common neighbor with 2)",
        "|N(0) cap N(1)| = 3 > 2",
        "|N(1) cap N(0)| = 3 > 2",
    ]),
    (from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (4, 1), (4, 3)]), [
        "common neighbors of 0,4 nonadjacent but in one component of G[N(u)]",
        "|N(1) cap N(3)| = 3 > 2",
        "common neighbors of 2,4 nonadjacent but in one component of G[N(u)]",
        "|N(3) cap N(1)| = 3 > 2",
        "overlapping 2-common-neighbor pairs at 4: 0,2 despite edge 0-2",
    ]),
    (from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 5), (1, 2), (2, 3), (4, 2), (4, 5)]), [
        "common neighbors of 0,4 in different components but not both path endpoints",
        "common neighbors of 2,5 in different components but not both path endpoints",
    ]),
    (from_edges(6, [(0, 1), (0, 2), (0, 3), (4, 1), (4, 2), (5, 2), (5, 3), (4, 5)]), [
        "pair-disjointness holds only for adjacent vertex pairs; 1 unrestricted "
        "exceptions, e.g. EsWw (nonadjacent 1,3 share a common neighbor with 2)",
        "overlapping 2-common-neighbor pairs at 0: 4,5 despite edge 4-5",
    ]),
]


@pytest.mark.parametrize("g, notes", OBV_VIOLATIONS, ids=["K4", "K23", "one-component",
                                                          "not-endpoints", "overlap"])
def test_obv_violation_messages_are_pinned(monkeypatch, g, notes):
    """Each graph reaches a violation branch of the obv suite that no
    member of the outerplanar class reaches: K_4 and K_{2,3} are not
    outerplanar, and the other three break one structural rule each."""
    monkeypatch.setattr(harness, "connected_outerplanar", lambda n: (g,))
    report = check_lemma("obv", [g.n])
    assert report.status == REFUTED
    assert report.notes == notes


def test_check_lemma_small_ranges():
    for name in ("obv", "addedges", "delta", "qmu"):
        report = check_lemma(name, range(2, 6))
        assert report.status == CONFIRMED, (name, report.notes)
    report = check_lemma("edgeshift", range(2, 7))
    assert report.status == CONFIRMED
    with pytest.raises(ParameterError):
        check_lemma("nonsense")


def test_bound_suites_honour_sep():
    """delta and qmu compare within sep plus the enclosure radius: at
    sep = 0 both hold, and a sep above delta's least slack (0.0514) makes
    some non-star look tight."""
    for name in ("delta", "qmu"):
        report = check_lemma(name, sep=0.0)
        assert report.status == CONFIRMED, (name, report.notes)
    report = check_lemma("delta", sep=0.06)
    assert report.status == REFUTED
    assert "max-degree bound tight on a non-star" in report.notes


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


@pytest.mark.parametrize("name", ["obv", "delta"])
def test_edge_suites_reject_order_one(name):
    """K_1 has no edge: the max-degree bound and the common-neighbour
    count do not apply, so order 1 is outside both domains, as for qmu."""
    with pytest.raises(ParameterError, match="needs orders in 2..10"):
        check_lemma(name, [1])


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
    """Stacks of 16 order-7 matrices make the perron suite's stream call
    q_indices hundreds of times; its report equals the one at the default
    stack size."""
    calls = []
    solve = spectral.q_indices
    monkeypatch.setattr(spectral, "q_indices", lambda graphs: calls.append(1) or solve(graphs))
    reports = []
    for entries in (16 * 7 * 7, spectral._STACK_ENTRIES):
        monkeypatch.setattr(spectral, "_STACK_ENTRIES", entries)
        monkeypatch.setattr(spectral, "_cache", {})
        calls.clear()
        report = check_lemma("perron", range(3, 8))
        reports.append((report.status, report.notes, report.margin, len(calls)))
    (*small, small_calls), (*default, default_calls) = reports
    assert small == default
    assert small_calls > 300 > 10 * default_calls


# Every lemma suite at its default range: status Confirmed, no witnesses
# or q values, and these parameters, notes and margins (to 1e-12).
PINNED_LEMMAS = {
    "obv": ({"n_range": [2, 3, 4, 5, 6, 7, 8]},
            ["pair-disjointness holds only for adjacent vertex pairs; 288 unrestricted "
             "exceptions, e.g. EqYO (nonadjacent 3,4 share a common neighbor with 0)"], 0.0),
    "addedges": ({"n_range": [2, 3, 4, 5, 6, 7], "sep": 1e-09},
                 ["instances checked: 9182"], 0.009480717813710626),
    "delta": ({"n_range": [2, 3, 4, 5, 6, 7], "sep": 1e-09}, [], 0.05137424173103611),
    "qmu": ({"n_range": [2, 3, 4, 5, 6, 7], "sep": 1e-09}, [], -1.7763568394002505e-15),
    "perron": ({"n_range": [3, 4, 5, 6, 7], "sep": 1e-09},
               ["instances checked: 10739"], 0.01875276132306869),
    "edgemove2": ({"n_range": [3, 4, 5, 6, 7], "sep": 1e-09},
                  ["instances checked: 57"], 0.26298228329011675),
    "edgemove3": ({"n_range": [4, 5, 6, 7], "sep": 1e-09},
                  ["instances checked: 127"], 0.13559050169902598),
    "edgemove": ({"n_range": [7], "sep": 1e-09}, ["instances checked: 9"], 0.4191286564523935),
    "edgeshift": ({"t_plus_s_max": 8, "sep": 1e-09},
                  ["instances checked: 144"], 0.00018207010871229556),
    "claim41": ({"n_min": 6, "n_max": 40, "sep": 1e-09}, ["specs checked: 2983"],
                0.000637631788516408),
}


def test_lemma_reports_are_pinned():
    assert list(PINNED_LEMMAS) == list(harness.LEMMA_NAMES)
    for name, (parameters, notes, margin) in PINNED_LEMMAS.items():
        report = check_lemma(name)
        assert (report.check_id, report.status) == (f"lemma:{name}", CONFIRMED), name
        assert (report.witness_graphs, report.q_values) == ([], []), name
        assert report.parameters == parameters and list(report.parameters) == list(parameters)
        assert report.notes == notes, name
        assert report.margin == pytest.approx(margin, rel=0, abs=1e-12), name


def test_q_raising_suites_name_each_miss(monkeypatch):
    """With every comparison unresolved, each move and each shift is a
    violation at its graph before the rewrite, named by its vertices or
    by (t, s), and no rise is recorded."""
    monkeypatch.setattr(harness, "compare_results", lambda *_: harness.Ordering.INDISTINGUISHABLE)
    report = check_lemma("edgemove", range(7, 8))
    assert report.status == REFUTED and report.margin == math.inf
    assert report.witness_graphs == ["FqaE_", "FqaF_", "FqbF_", "Fqae_", "Fqaf_", "Fqaeo",
                                     "Fqam_", "FqJFo", "FqHVo"]
    assert report.notes == (["instances checked: 9"]
                            + ["ChordSwap (0, 3, 1, 6) did not raise q"] * 7
                            + ["ChordSwap (6, 5, 0, 1) did not raise q",
                               "ChordSwap (6, 5, 1, 3) did not raise q"])
    report = check_lemma("edgeshift", range(2, 4))
    assert report.status == REFUTED and report.margin == math.inf
    assert report.witness_graphs == ["Bo", "C{", "Cs", "Dt_", "Ci", "DjO", "Ds_", "Ese?", "DqO",
                                     "EqT?", "DpG", "EpK_", "D{_", "E{e?", "DyO", "EyT?", "DxG",
                                     "ExK_"]
    assert report.notes == (["instances checked: 18"]
                            + ["shift t=1,s=1 did not raise q",
                               "shift t=2,s=1 did not raise q"] * 9)


def test_claim41_names_the_first_entry_outside_and_slack_before_it(monkeypatch):
    """With some Perron ratios pushed out of the interval and some radii
    made infinite, the report matches an entry-by-entry scan of each spec
    solved alone: the first entry outside is named, an unbracketed spec is
    a violation, and the slack covers only the entries before the first
    one outside."""
    solve = spectral.path_join_ratios

    def perturbed(parts_list):
        qs, ys, radii = solve(parts_list)
        ys, radii = ys.copy(), radii.copy()
        for i, parts in enumerate(parts_list):
            key = sum(a * a for a in parts) + len(parts)
            if key % 4 == 1:  # two entries outside, the later one below
                ys[i, -1] = 0.0
                ys[i, key % (ys.shape[1] - 1)] *= 40
            elif key % 4 == 2:
                ys[i, (key + 2) % ys.shape[1]] = 0.0
            elif key % 8 == 3:  # no bracket, and an entry just inside that must not count
                radii[i] = math.inf
                ys[i, 0] = 1 / qs[i] + 1e-7
        return qs, ys, radii

    monkeypatch.setattr(harness, "path_join_ratios", perturbed)
    sep = 1e-9
    report = check_lemma("claim41", range(6, 16), sep)
    violations, witnesses, slack, count = [], [], math.inf, 0
    for spec in harness.claim41_specs(6, 15):
        count += 1
        (q,), (x,), (radius,) = perturbed([spec.parts])
        lo, hi = 1 / q, 1 / q + 30 / (q * q)
        if radius == math.inf:
            violations.append(f"no bracket at q={q}")
            witnesses.append(graph6_encode(harness.path_join(spec)))
            continue
        for v in range(spec.order - 1):
            if not lo + sep < x[v] < hi - sep:
                violations.append(f"entry x_{v}={x[v]} outside ({lo}, {hi})")
                witnesses.append(graph6_encode(harness.path_join(spec)))
                break
            slack = min(slack, x[v] - lo, hi - x[v])
    assert len(violations) > 20 and any(m.startswith("no bracket") for m in violations[:20])
    assert slack > 1e-6
    assert report.status == REFUTED
    assert report.notes == [f"specs checked: {count}"] + violations[:20]
    assert report.witness_graphs == witnesses[:20]
    assert report.margin == slack


def test_claim41_sep_widens_the_interval():
    """The least distance of a Perron ratio to the interval's ends is
    about 6.4e-4: sep = 0 confirms, sep = 1e-3 refutes."""
    report = check_lemma("claim41", sep=0)
    assert (report.status, report.parameters["sep"]) == (CONFIRMED, 0)
    assert report.margin == pytest.approx(PINNED_LEMMAS["claim41"][2], rel=0, abs=1e-12)
    report = check_lemma("claim41", sep=1e-3)
    assert report.status == REFUTED and report.parameters["sep"] == 1e-3
    assert len(report.notes) == 21 and report.notes[1].startswith("entry x_")


def test_claim41_builds_no_join_and_no_dense_solve(monkeypatch):
    """A clean default run solves its joins by path_join_ratios alone: no
    eigh call, no join Graph, nothing added to the q_indices cache."""

    def forbidden(*args):
        raise AssertionError("called")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(harness, "path_join", forbidden)
    monkeypatch.setattr(harness, "q_indices", forbidden)
    monkeypatch.setattr(spectral, "_cache", {})
    report = check_lemma("claim41")
    assert report.status == CONFIRMED and report.notes == ["specs checked: 2983"]
    assert spectral._cache == {}


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


@pytest.mark.parametrize("text", ["n_min = 5\nn_max = 5\n", "checks = ,\nn_min = 5\nn_max = 5\n"])
def test_campaign_without_checks_is_rejected_before_writing(tmp_path, text):
    # it used to run nothing, write a header-only summary and pass
    with pytest.raises(ConfigError, match="no checks to run"):
        run_campaign(_campaign(tmp_path, text))
    assert not (tmp_path / "reports").exists()


def test_campaign_writes_each_report_as_its_check_finishes(tmp_path, monkeypatch):
    real = harness.verify_cycle_theorem
    reports = tmp_path / "reports"
    seen = []

    def look_then_run(*args):
        # each earlier report, the failed one included, is on disk already
        seen.append(sorted(f.name for f in reports.iterdir()))
        if len(seen) == 2:
            raise RuntimeError("second check fails")
        return real(*args)

    monkeypatch.setattr(harness, "verify_cycle_theorem", look_then_run)
    run_campaign(_campaign(tmp_path, "checks = cycle\nn_min = 5\nn_max = 5\n"))
    assert seen == [[], ["cycle_n5_ell3.json"], ["cycle_n5_ell3.json", "cycle_n5_ell4.json"]]
    report = VerificationReport.from_json((reports / "cycle_n5_ell3.json").read_text())
    assert report.check_id == "cycle:n=5,ell=3" and report.status == CONFIRMED


def test_campaign_survives_a_failing_check(tmp_path, monkeypatch, capsys):
    real = harness.verify_cycle_theorem

    def ell4_fails(n, ell, sep):
        if ell == 4:
            raise RuntimeError("solver blew up\nsecond line")
        return real(n, ell, sep)

    monkeypatch.setattr(harness, "verify_cycle_theorem", ell4_fails)
    config = _campaign(tmp_path, "checks = cycle, lemma:delta\nn_min = 5\nn_max = 5\n")
    code, files = run_campaign(config)
    assert code == 1
    assert [f.name for f in files] == ["cycle_n5_ell3.json", "cycle_n5_ell4.json",
                                       "cycle_n5_ell5.json", "lemma_delta.json", "summary.csv"]
    failed = VerificationReport.from_json((tmp_path / "reports" / "cycle_n5_ell4.json").read_text())
    assert failed.check_id == "cycle:n=5,ell=4" and failed.status == ERROR
    assert failed.notes == ["RuntimeError: solver blew up"]
    rows = list(csv.reader((tmp_path / "reports" / "summary.csv").open()))
    assert [row[:2] for row in rows[1:]] == [["cycle:n=5,ell=3", CONFIRMED],
                                             ["cycle:n=5,ell=4", ERROR],
                                             ["cycle:n=5,ell=5", CONFIRMED],
                                             ["lemma:delta", CONFIRMED]]
    # the command line exits 1 and still lists every file
    assert main(["campaign", str(config)]) == 1
    assert capsys.readouterr().out.split() == [str(f) for f in files]


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
        "parameters": {"n": 7, "t": 2, "ell": 3, "alpha": 2, "r": 0, "sep": 1e-09},
        "status": "Confirmed", "witness_graphs": ["Fsqc_"],
        "q_values": [7.372281323269014, 7.3722813232690125], "margin": 0.11349565017828134,
        "notes": []}),
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
    monkeypatch.setattr(harness, "path_extremal", lambda n, t, ell: (path(n), 0, 0))
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
