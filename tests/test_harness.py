import csv
import json
import math
from collections import Counter
from fractions import Fraction
from itertools import groupby

import numpy as np
import pytest

from qouter import enumeration, harness, spectral, transforms
from qouter.canon import canonical_code
from qouter.cli import main
from qouter.constructions import cycle_extremal, h_gadget, path_extremal
from qouter.enumeration import EnumerationClass, connected_graphs, extremal_argmax
from qouter.errors import ConfigError, ParameterError, PatternError
from qouter.graph6 import graph6_decode, graph6_encode
from qouter.graphs import complete, from_edges, path, star
from qouter.harness import (
    CONFIRMED,
    ERROR,
    OUT_OF_SCOPE,
    REFUTED,
    TIE,
    VerificationReport,
    check_lemma,
    parse_campaign_config,
    run_campaign,
    structural_check,
    verify_cycle_theorem,
    verify_path_theorem,
)
from qouter.recognition import ForbiddenPattern
from qouter.spectral import Ordering, SpectralResult, compare_results
from qouter.transforms import greedy_ascent
from .oracles import path_shift, rayleigh_quotient
from .test_enumeration import _clear_argmax_views, _count_f_free


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
    # an infinite sep is null too; it and the margin read back as inf
    report.parameters["sep"] = math.inf
    data = json.loads(report.to_json())
    assert data["margin"] is None and data["parameters"]["sep"] is None
    assert VerificationReport.from_json(report.to_json()) == report
    # no other non-finite value gets out as a bare Infinity or NaN
    report.q_values = [math.nan]
    with pytest.raises(ValueError):
        report.to_json()


def test_verify_cycle_theorem_confirms():
    report = verify_cycle_theorem(7, 4)
    assert report.status == CONFIRMED
    assert report.margin > 1e-9
    expected, _, _ = cycle_extremal(7, 4)
    assert len(report.witness_graphs) == 1
    witness = graph6_decode(report.witness_graphs[0])
    assert canonical_code(witness) == canonical_code(expected)
    assert report.runtime_ms >= 0


@pytest.mark.parametrize("sep", [-1.0, float("nan"), True, False, None, "1", np.float32(-1)])
def test_bad_sep_is_rejected(sep):
    """A NaN sep once excluded nothing and certified a 19-way Tie; True
    was read as 1 (a cycle Tie, a delta Refuted), and None or a string
    raised a bare TypeError. Each is refused at every entry point."""
    for check in (lambda: verify_cycle_theorem(6, 4, sep),
                  lambda: check_lemma("obv", [4], sep),
                  lambda: check_lemma("delta", sep=sep),
                  lambda: check_lemma("claim41", [6], sep),
                  lambda: extremal_argmax(EnumerationClass(5), sep),
                  lambda: compare_results(spectral.q_index(path(3)), 3, sep)):
        with pytest.raises(ParameterError, match="sep must be nonnegative"):
            check()


@pytest.mark.parametrize("sep", [0, 1, 1e-9, np.float64(1e-6), np.float32(0.0), math.inf])
def test_numeric_seps_are_accepted(sep):
    """An int, a float and a numpy float are each a separation: q(P_4) =
    3.41 is GREATER than 3 unless sep covers the gap, C_4 at n = 5 is a
    Tie once sep reaches 1 (True used to be read so), and so is delta's
    bound on K_3 (q = 4 against 3)."""
    wide = sep >= 1
    assert compare_results(spectral.q_index(path(4)), 3, sep) is (
        Ordering.INDISTINGUISHABLE if wide else Ordering.GREATER)
    assert verify_cycle_theorem(5, 4, sep).status == (TIE if wide else CONFIRMED)
    assert check_lemma("delta", [2, 3], sep).status == (REFUTED if wide else CONFIRMED)


@pytest.mark.parametrize("pattern", ["C4", 4, ("cycle", 4)])
def test_a_pattern_that_is_not_a_forbidden_pattern_is_refused(pattern):
    """A pattern given as a string or a tuple used to reach its first
    attribute read and raise AttributeError; each entry point that takes
    a pattern refuses it with a ParameterError. None, no pattern, stays
    allowed where it means the unfiltered class."""
    with pytest.raises(ParameterError, match=r"structural check needs .*, got n=5, pattern="):
        structural_check(5, pattern)
    for check in (lambda: extremal_argmax(EnumerationClass(5, pattern)),
                  lambda: greedy_ascent(path(5), pattern)):
        with pytest.raises(ParameterError, match="pattern must be a ForbiddenPattern or None"):
            check()
    assert extremal_argmax(EnumerationClass(5, None)).q == extremal_argmax(EnumerationClass(5)).q
    assert greedy_ascent(path(5), None)[0].n == 5


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


@pytest.mark.parametrize("call, error", [
    (lambda: verify_cycle_theorem(5.0, 4), ParameterError),
    (lambda: verify_path_theorem(7.0, 2, 3), ParameterError),
    (lambda: verify_cycle_theorem(5, 4.0), PatternError),
    (lambda: verify_path_theorem(6, 1, 4.0), PatternError),
    (lambda: verify_path_theorem(7, True, 4), PatternError),
    (lambda: structural_check(5.0, ForbiddenPattern.cycle(4)), ParameterError),
    (lambda: cycle_extremal(6.0, 4), ParameterError),
    (lambda: path_extremal(7, True, 4), PatternError),
    (lambda: path_extremal(7, 2, 3.0), PatternError),
    (lambda: path_extremal(7, 1.0, 4), PatternError),
    (lambda: h_gadget(path(3), 0.0, 1, 0), ParameterError),
    (lambda: h_gadget(path(3), 0, 1.5, 0), ParameterError),
    (lambda: h_gadget(path(3), 0, True, 0), ParameterError),
    (lambda: h_gadget(path(3), 0, 1, 0.0), ParameterError),
], ids=["cycle-n", "path-n", "cycle-ell", "path-ell", "path-t-bool", "structural-n",
        "cycle_extremal-n", "path_extremal-t-bool", "path_extremal-ell", "path_extremal-t",
        "h_gadget-u", "h_gadget-t", "h_gadget-t-bool", "h_gadget-s"])
def test_orders_and_lengths_must_be_ints(call, error):
    """A float or bool order, path count or length is refused as such,
    even when it equals an int; a bool counts as no int. The checks and
    the candidate constructions refuse a non-int n, the pattern a non-int
    t or ell wherever it is given, and the gadget a non-int vertex or
    path order."""
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("kind, n, pattern", [
    ("cycle", 7, ForbiddenPattern.cycle(4)),
    ("cycle", 8, ForbiddenPattern.cycle(5)),
    ("path", 8, ForbiddenPattern.paths(2, 3)),
    ("path", 7, ForbiddenPattern.paths(1, 5)),
])
def test_structural_cell_reads_its_siblings_argmax(monkeypatch, kind, n, pattern):
    """After its cycle or path sibling, a structural cell tests the
    pattern on no member: the argmax kept for its class and sep answers
    it, as exactly one hit of the argmax cache, with the same winners, q
    and margin."""
    _clear_argmax_views()
    sibling = harness.THEOREMS[kind].entry(n, pattern, 1e-9)
    calls = _count_f_free(monkeypatch)
    before = enumeration._scan.cache_info()
    report = structural_check(n, pattern)
    after = enumeration._scan.cache_info()
    assert not calls
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert sibling.status == report.status == CONFIRMED
    assert report.witness_graphs == sibling.witness_graphs
    assert (report.q_values[0], report.margin) == (sibling.q_values[0], sibling.margin)


def test_structural_cells_are_the_cycle_and_path_cells():
    """Every structural cell has a cycle or path sibling, so a campaign
    of all three kinds scans no structural argmax of its own."""
    def cells(kind):
        return {(n, p) for n in range(1, 11) for p in harness.THEOREMS[kind].cells(n)}

    assert cells("structural") == cells("cycle") | cells("path")


def test_structural_rule_is_the_cycle_and_path_rules():
    """For every C_ell and tP_ell up to order 12, not only the patterns
    of `cells`, the structural kind has a cell iff the cycle or the path
    kind has it: ell <= n for a cycle and 4 <= t*ell <= n - 1 for paths,
    since t*ell >= 4 iff t >= 2 or ell >= 4 when ell >= 2."""
    cycle, paths, structural = (harness.THEOREMS[k] for k in ("cycle", "path", "structural"))
    patterns = [ForbiddenPattern.cycle(ell) for ell in range(3, 14)]
    patterns += [ForbiddenPattern.paths(t, ell) for t in range(1, 13) for ell in range(2, 14)]
    for n in range(1, 13):
        for p in patterns:
            stated = p.ell <= n if p.kind == "cycle" else 4 <= p.t * p.ell <= n - 1
            union = cycle.has_cell(n, p) or paths.has_cell(n, p)
            assert structural.has_cell(n, p) == union == stated, (n, p)


def test_structural_parameter_error_is_pinned():
    with pytest.raises(ParameterError) as info:
        structural_check(6, ForbiddenPattern.paths(1, 3))
    assert str(info.value) == (
        "structural check needs a C<ell> pattern with 3 <= ell <= n, or a <t>P<ell> "
        "pattern with t >= 2 or ell >= 4, and t*ell <= n - 1 and 1 <= n <= 10, "
        "got n=6, pattern=P3")


# (kind, status) -> count over the cycle and path cells of orders 1..10
FINITE_SEP_VERDICTS = {("cycle", CONFIRMED): 35, ("cycle", TIE): 1, ("path", CONFIRMED): 25}
INFINITE_SEP_VERDICTS = {("cycle", CONFIRMED): 1, ("cycle", TIE): 35,
                         ("path", CONFIRMED): 12, ("path", TIE): 13}


@pytest.mark.parametrize("sep, tally", [(0.0, FINITE_SEP_VERDICTS),
                                        (1e-9, FINITE_SEP_VERDICTS),
                                        (math.inf, INFINITE_SEP_VERDICTS)],
                         ids=["0", "1e-9", "inf"])
def test_candidate_verdict_reads_the_argmax(sep, tally):
    """A cycle or path cell is Confirmed iff its argmax is unique
    (`ArgmaxResult.unique`) and is the candidate, Tie iff the candidate is
    among two or more winners, and else the kind's miss status. An
    infinite sep separates nothing, so every cell is a Tie but those
    whose class has one member: C3 at n = 3, and P4 and 2P2 at n >= 5,
    where the star is the only member."""
    seen = Counter()
    confirmed = set()
    for kind, miss, build in (("cycle", REFUTED, lambda n, p: cycle_extremal(n, p.ell)),
                              ("path", OUT_OF_SCOPE, lambda n, p: path_extremal(n, p.t, p.ell))):
        theorem = harness.THEOREMS[kind]
        for n in range(1, 11):
            for p in theorem.cells(n):
                report = theorem.entry(n, p, sep)
                result = extremal_argmax(EnumerationClass(n, p), sep)
                code = canonical_code(build(n, p)[0])
                assert (report.status == CONFIRMED) == (
                    result.unique and result.codes[0] == code), report.check_id
                assert (report.status == TIE) == (
                    code in result.codes and len(result.codes) >= 2), report.check_id
                assert report.status in (CONFIRMED, TIE, miss), report.check_id
                seen[kind, report.status] += 1
                if report.status == CONFIRMED:
                    confirmed.add((n, str(p)))
    assert seen == tally
    if sep == math.inf:
        assert confirmed == {(3, "C3")} | {(n, p) for n in range(5, 11) for p in ("P4", "2P2")}


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


@pytest.mark.parametrize("name, g, q, notes", [
    ("delta", path(4), 2.5, ["q=2.5 below max-degree bound 3"]),
    ("delta", path(4), 3.0, ["max-degree bound tight on a non-star"]),
    ("delta", star(4), 4.5, ["max-degree bound not tight on the star"]),
    ("delta", star(4), 3.5, ["q=3.5 below max-degree bound 4",
                             "max-degree bound not tight on the star"]),
    ("qmu", path(4), 100.0, ["q=100.0 above eta bound 3.5"]),
], ids=["below", "tight", "star-not-tight", "star-below", "above-eta"])
def test_bound_violation_messages_are_pinned(monkeypatch, name, g, q, notes):
    """Each solve reaches a violation branch of delta or qmu that no
    connected graph's true q reaches."""
    solve = spectral.SpectralResult(q, np.full(g.n, g.n ** -0.5), 0.0)
    monkeypatch.setattr(harness, "_solved", lambda n_range: [(g, solve)])
    report = check_lemma(name, [g.n], sep=0.0)
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


def _inline_delta(g, res, sep):
    """delta's notes and slack for one graph, from the inline float tests
    that compare_results replaced."""
    q = res.q
    bound = g.max_degree() + 1
    tol = sep + res.radius
    notes = []
    if q < bound - tol:
        notes.append(f"q={q} below max-degree bound {bound}")
    is_star = g.m == g.n - 1 and g.max_degree() == g.n - 1
    if abs(q - bound) <= tol and not is_star:
        notes.append("max-degree bound tight on a non-star")
    if is_star and abs(q - bound) > tol:
        notes.append("max-degree bound not tight on the star")
    return notes, math.inf if is_star else q - bound


def _inline_qmu(g, res, sep):
    q = res.q
    bound = spectral.eta_max(g)
    notes = [f"q={q} above eta bound {bound}"] if q > bound + sep + res.radius else []
    return notes, bound - q


@pytest.mark.parametrize("sep", [0.0, 1e-9, 0.5, math.inf])
def test_bound_suites_decide_as_the_inline_tests_they_replaced(monkeypatch, sep):
    """delta and qmu decide through compare_results, the bound exact. On
    every connected graph of order 2..7, run alone, each suite's notes and
    slack equal those of the inline float tests it replaced."""
    suites = {"delta": (harness._check_delta, _inline_delta),
              "qmu": (harness._check_qmu, _inline_qmu)}
    for g, res in list(harness._solved(range(2, 8))):
        monkeypatch.setattr(harness, "_solved", lambda n_range: [(g, res)])
        for name, (suite, inline) in suites.items():
            report = suite([g.n], sep)
            assert (report.notes, report.margin) == inline(g, res, sep), (name, g)


@pytest.mark.parametrize("name", harness.LEMMA_NAMES)
@pytest.mark.parametrize("n_range", [[], [0]])
def test_check_lemma_rejects_ranges_outside_domain(name, n_range):
    with pytest.raises(ParameterError):
        check_lemma(name, n_range)


def test_check_lemma_rejects_a_repeated_order():
    """A repeated order would count its instances twice (perron at
    [5, 5] would report 72 against 36 at [5]): every suite refuses it
    before running."""
    assert check_lemma("perron", [5]).notes == ["instances checked: 36"]
    for name in harness.LEMMA_NAMES:
        n = harness._LEMMA_SUITES[name][1][0]
        with pytest.raises(ParameterError, match=fr"repeated order in \[{n}, {n + 1}, {n}\]"):
            check_lemma(name, [n, n + 1, n])


def test_claim41_checks_exactly_the_orders_it_is_given():
    """Orders with a gap check only those orders: [6, 9] reads the
    partitions of 5 and of 8, 7 + 22 specs; the orders are walked in
    increasing order, so [7, 6] is [6, 7]."""
    report = check_lemma("claim41", [6, 9])
    assert (report.status, report.notes) == (CONFIRMED, ["specs checked: 29"])
    assert report.parameters == {"n_range": [6, 9], "sep": 1e-9}
    shuffled, ordered = check_lemma("claim41", [7, 6]), check_lemma("claim41", [6, 7])
    assert shuffled.notes == ordered.notes == ["specs checked: 18"]
    assert (shuffled.status, shuffled.margin) == (ordered.status, ordered.margin)
    assert shuffled.parameters == {"n_range": [7, 6], "sep": 1e-9}
    assert list(harness.claim41_specs([40, 13])) == list(harness.claim41_specs([13, 40]))


def test_edgeshift_checks_exactly_the_orders_it_is_given():
    """edgeshift's orders are the values of t + s: 4 shifts of each of the
    9 attachments (h, u) at t + s = 8, 36 instances; 108 at 5..8, and
    the default's 144 at 2..8, which a lone 8 used to read as well."""
    for n_range, count in (([8], 36), ([5, 6, 7, 8], 108), (range(2, 9), 144), ([2], 9)):
        report = check_lemma("edgeshift", n_range)
        assert report.status == CONFIRMED, n_range
        assert report.notes == [f"instances checked: {count}"], n_range
        assert report.parameters == {"n_range": list(n_range), "sep": 1e-9}


def test_check_lemma_rejects_orders_outside_domain():
    # claim41 is stated for 6 <= n <= 40, qmu needs an edge
    for name, n_range in [("claim41", range(2, 5)), ("claim41", range(6, 42)),
                          ("qmu", range(1, 4)), ("obv", [11])]:
        with pytest.raises(ParameterError):
            check_lemma(name, n_range)


@pytest.mark.parametrize("n_range", [[3.0], [4.0, 5.0], [6.0, 7.0], [True, 3], [6, 7.5]])
@pytest.mark.parametrize("name", ["perron", "edgeshift", "claim41", "delta"])
def test_check_lemma_rejects_orders_that_are_not_ints(name, n_range):
    """An order equal to an int (3.0, True == 1) is refused as well, before
    any suite runs; a bool counts as no int."""
    with pytest.raises(ParameterError, match="needs orders in"):
        check_lemma(name, n_range)


@pytest.mark.parametrize("name", ["obv", "delta"])
def test_edge_suites_reject_order_one(name):
    """K_1 has no edge: the max-degree bound and the common-neighbour
    count do not apply, so order 1 is outside both domains, as for qmu.
    obv runs on outerplanar graphs up to order 10, delta on connected
    graphs up to order 9."""
    domain = {"obv": "2..10", "delta": "2..9"}[name]
    with pytest.raises(ParameterError, match=f"needs orders in {domain}"):
        check_lemma(name, [1])


@pytest.mark.parametrize("name", ["addedges", "delta", "qmu", "perron", "edgemove2",
                                  "edgemove3", "edgemove"])
def test_connected_graph_suites_stop_at_order_9(monkeypatch, name):
    """Order 10 of the connected graphs (11,716,571 of them) is out of
    reach: each suite that walks them refuses it before generating any."""

    def refuse(n):
        raise AssertionError("connected_graphs called")

    monkeypatch.setattr(harness, "connected_graphs", refuse)
    low = 2 if name in ("delta", "qmu") else 1
    with pytest.raises(ParameterError, match=fr"needs orders in {low}\.\.9, got \[9, 10\]"):
        check_lemma(name, [9, 10])


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
    """Stacks of 16 order-7 matrices split the perron suite's befores into
    dozens of eigh stacks; its report equals the one at the default stack
    size, and each run makes exactly the stacks its befores need, one
    order at a time: no after is solved."""
    calls = []
    bracket = spectral._bracket
    monkeypatch.setattr(spectral, "_bracket", lambda mats: calls.append(1) or bracket(mats))
    reports = []
    for entries in (16 * 7 * 7, spectral._STACK_ENTRIES):
        monkeypatch.setattr(spectral, "_STACK_ENTRIES", entries)
        harness._solved_level.cache_clear()
        calls.clear()
        report = check_lemma("perron", range(3, 8))
        stacks = sum(-(-len(connected_graphs(n)) // (entries // (n * n))) for n in range(3, 8))
        reports.append((report.status, report.notes, report.margin, len(calls), stacks))
    (*small, small_calls, small_stacks), (*default, default_calls, default_stacks) = reports
    assert small == default
    assert (small_calls, default_calls) == (small_stacks, default_stacks)
    assert small_calls > len(connected_graphs(7)) // 16 > 5 * default_calls


def test_suites_over_the_same_orders_solve_each_level_once(monkeypatch):
    """perron solves each connected level of its orders once, one stack
    row per graph; edgemove2 over the same orders reads those levels and,
    leaving no after open, makes no eigh stack at all."""
    rows = []
    bracket = spectral._bracket
    monkeypatch.setattr(spectral, "_bracket", lambda mats: rows.append(len(mats)) or bracket(mats))
    harness._solved_level.cache_clear()
    assert check_lemma("perron", range(3, 8)).notes == PINNED_LEMMAS["perron"][1]
    assert sum(rows) == sum(len(connected_graphs(n)) for n in range(3, 8))
    rows.clear()
    assert check_lemma("edgemove2", range(3, 8)).notes == PINNED_LEMMAS["edgemove2"][1]
    assert rows == []


# Every lemma suite at its default range: status Confirmed, no witnesses
# or q values, and these parameters, notes and margins (to 1e-12). A
# q-raising suite's margin is a lower bound on its least rise.
PINNED_LEMMAS = {
    "obv": ({"n_range": [2, 3, 4, 5, 6, 7, 8]},
            ["pair-disjointness holds only for adjacent vertex pairs; 288 unrestricted "
             "exceptions, e.g. EqYO (nonadjacent 3,4 share a common neighbor with 0)"], 0.0),
    "addedges": ({"n_range": [2, 3, 4, 5, 6, 7], "sep": 1e-09},
                 ["instances checked: 9182"], 0.00561017970434996),
    "delta": ({"n_range": [2, 3, 4, 5, 6, 7], "sep": 1e-09}, [], 0.05137424173103611),
    "qmu": ({"n_range": [2, 3, 4, 5, 6, 7], "sep": 1e-09}, [], -1.7763568394002505e-15),
    "perron": ({"n_range": [3, 4, 5, 6, 7], "sep": 1e-09},
               ["instances checked: 10739"], 0.0013385179364711064),
    "edgemove2": ({"n_range": [3, 4, 5, 6, 7], "sep": 1e-09},
                  ["instances checked: 57"], 0.18885431389493146),
    "edgemove3": ({"n_range": [4, 5, 6, 7], "sep": 1e-09},
                  ["instances checked: 127"], 0.097646416986648),
    "edgemove": ({"n_range": [7], "sep": 1e-09}, ["instances checked: 9"], 0.029367654462941317),
    "edgeshift": ({"n_range": [2, 3, 4, 5, 6, 7, 8], "sep": 1e-09},
                  ["instances checked: 144"], 0.0001820701086572285),
    "claim41": ({"n_range": list(range(6, 41)), "sep": 1e-09}, ["specs checked: 2983"],
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


def test_suites_take_each_q_from_the_stream_that_solved_it(monkeypatch):
    """Run alone with no level solved, and with no q_index lookup
    allowed, every suite that reads q still gives its pinned report: it
    solves each graph it reads, and no suite relies on one that ran
    before it."""

    def forbidden(*args):
        raise AssertionError("q_index called")

    monkeypatch.setattr(harness, "q_index", forbidden)
    for name in ("perron", "edgemove2", "edgemove3", "edgemove", "addedges", "edgeshift",
                 "delta", "qmu"):
        harness._solved_level.cache_clear()
        report = check_lemma(name)
        parameters, notes, margin = PINNED_LEMMAS[name]
        assert (report.status, report.parameters, report.notes) == (CONFIRMED, parameters,
                                                                    notes), name
        assert report.margin == pytest.approx(margin, rel=0, abs=1e-12), name


def test_q_raising_suites_name_each_miss():
    """With a sep that no rise clears (q < 2n), neither the Rayleigh
    certificate nor a solved comparison raises q: each move and each
    shift is a violation at its graph before the rewrite, named by its
    vertices or by (t, s), and no rise is recorded."""
    report = check_lemma("edgemove", range(7, 8), sep=100.0)
    assert report.status == REFUTED and report.margin == math.inf
    assert report.witness_graphs == ["FqaE_", "FqaF_", "FqbF_", "Fqae_", "Fqaf_", "Fqaeo",
                                     "Fqam_", "FqJFo", "FqHVo"]
    assert report.notes == (["instances checked: 9"]
                            + ["ChordSwap (0, 3, 1, 6) did not raise q"] * 7
                            + ["ChordSwap (6, 5, 0, 1) did not raise q",
                               "ChordSwap (6, 5, 1, 3) did not raise q"])
    report = check_lemma("edgeshift", range(2, 4), sep=100.0)
    assert report.status == REFUTED and report.margin == math.inf
    assert report.witness_graphs == ["Bo", "C{", "Cs", "Dt_", "Ci", "DjO", "Ds_", "Ese?", "DqO",
                                     "EqT?", "DpG", "EpK_", "D{_", "E{e?", "DyO", "EyT?", "DxG",
                                     "ExK_"]
    assert report.notes == (["instances checked: 18"]
                            + ["shift t=1,s=1 did not raise q",
                               "shift t=2,s=1 did not raise q"] * 9)


# Each move suite at its default orders up to 6, and ChordSwap at its one
# default order, 7, where the Rayleigh certificate leaves instances open.
MOVE_SUITES = [("addedges", "AddEdge", range(2, 7)), ("perron", "PerronRotate", range(3, 7)),
               ("edgemove2", "LeafReattach", range(3, 7)), ("edgemove3", "PendantPull", range(4, 7)),
               ("edgemove", "ChordSwap", range(7, 8))]


@pytest.mark.parametrize("name, kind, n_range", MOVE_SUITES, ids=[m[0] for m in MOVE_SUITES])
def test_rayleigh_certificate_matches_the_exact_oracle(name, kind, n_range):
    """For every instance, the scaled vector, the threshold and the edit's
    numerator (before's, plus the added edge's term, less the dropped
    one's) are those of an exact Fraction computation entry by entry of
    Q on the after that the edit builds; an after is certified exactly
    when its quotient clears q + radius + sep of its before, and then
    q(after) is at least that quotient. The report's margin is the least
    of the certified bounds and the solved rises, at most the least rise
    solved the old way and widened by both radii."""
    sep = 1e-9
    least_bound = least_rise = math.inf
    opened = 0
    for n in n_range:
        for before in connected_graphs(n):
            base = spectral.q_index(before)
            xs, num, threshold, den = harness._rayleigh_setup(before, base, sep)
            assert xs == [round(v * 2 ** 40) for v in base.vector.tolist()]
            assert Fraction(num, den) == rayleigh_quotient(before, xs)
            hi = Fraction(base.q) + Fraction(base.radius) + Fraction(sep)
            assert threshold == math.floor(hi * den)
            # exact for any rational sep too, not only for a dyadic float
            for other in (0, Fraction(1, 3), Fraction(1, 10**9 + 7)):
                hi_other = Fraction(base.q) + Fraction(base.radius) + other
                assert harness._rayleigh_setup(before, base, other)[2] == math.floor(hi_other * den)
            for _, drop, add in transforms.MOVES[kind](before, base.vector):
                after = transforms.rewrite(before, drop, add)
                bound = rayleigh_quotient(after, xs)
                after_num = num + (xs[add[0]] + xs[add[1]]) ** 2
                if drop is not None:
                    after_num -= (xs[drop[0]] + xs[drop[1]]) ** 2
                assert Fraction(after_num, den) == bound
                assert (after_num > threshold) == (bound > hi)
                res = spectral.q_index(after)
                least_rise = min(least_rise, res.q - base.q + res.radius + base.radius)
                if bound > hi:
                    assert res.q + res.radius >= float(bound)
                    least_bound = min(least_bound, float(bound) - (base.q + base.radius))
                else:
                    opened += 1
                    assert compare_results(res, base, sep) is Ordering.GREATER
                    least_bound = min(least_bound, res.q - res.radius - (base.q + base.radius))
    assert opened == (2 if kind == "ChordSwap" else 0)
    report = check_lemma(name, n_range, sep)
    assert report.status == CONFIRMED
    assert report.margin == least_bound
    assert 0 < report.margin <= least_rise


# Afters that the Rayleigh certificate leaves open at the default ranges,
# and how many of those reach the solver; every other after is certified
# unsolved. Each open after of edgeshift, the gadget on (t+1, s-1) with
# s >= 2, is the before of another shift; it is solved again, in the
# batch of open afters.
OPEN_AFTERS = {"addedges": (0, 0), "perron": (0, 0), "edgemove2": (0, 0), "edgemove3": (0, 0),
               "edgemove": (2, 2), "edgeshift": (45, 45)}


def test_q_raising_suites_solve_only_the_afters_left_open(monkeypatch):
    """Run alone with no level solved, each q-raising suite solves its
    befores once, in full (a move suite one batch per order), and then
    only the afters its certificate leaves open, as one batch; its notes
    name every instance, open or not."""
    batches = []
    solved = []
    solve = harness.q_indices
    monkeypatch.setattr(harness, "q_indices",
                        lambda graphs: solve(batches.append(list(graphs)) or batches[-1]))
    dense = spectral._solve
    monkeypatch.setattr(spectral, "_solve",
                        lambda graphs: solved.append(len(graphs)) or dense(graphs))
    for name, (count, fresh) in OPEN_AFTERS.items():
        harness._solved_level.cache_clear()
        batches.clear()
        solved.clear()
        report = check_lemma(name)
        assert report.notes == PINNED_LEMMAS[name][1], name
        *befores, afters = batches
        n_range = PINNED_LEMMAS[name][0].get("n_range", [])
        assert [len(batch) for batch in befores] == (
            [144] if name == "edgeshift" else [len(connected_graphs(n)) for n in n_range]), name
        assert len(afters) == count, name
        assert solved == [len(batch) for batch in befores] + [fresh], name


def test_q_raising_suites_build_no_certified_after(monkeypatch):
    """Each q-raising suite builds a graph (transforms.rewrite) for
    exactly the edits its certificate leaves open, and for no certified
    one."""
    built = []
    rewrite = transforms.rewrite
    monkeypatch.setattr(transforms, "rewrite",
                        lambda g, drop, add: built.append(1) or rewrite(g, drop, add))
    for name, (count, _) in OPEN_AFTERS.items():
        built.clear()
        report = check_lemma(name)
        assert report.notes == PINNED_LEMMAS[name][1], name
        assert len(built) == count, name


def test_edgeshift_edits_rewrite_to_the_path_shifts(monkeypatch):
    """Each of the 144 default shifts reaches the certificate as one edge
    edit of its gadget, h_gadget(h, u, t, s), that rewrites it row for
    row to path_shift(h, u, t, s): an added edge for s = 1, and a dropped
    one besides for s >= 2."""
    fed = []
    raises_q = harness._raises_q

    def record(name, params, befores, sep, describe):
        fed.extend((before, res, list(instances)) for before, res, instances in befores)
        return raises_q(name, params, iter(fed), sep, describe)

    monkeypatch.setattr(harness, "_raises_q", record)
    report = check_lemma("edgeshift")
    assert (report.status, report.notes) == (CONFIRMED, PINNED_LEMMAS["edgeshift"][1])
    shifts = [(h, u, t, s) for k in (1, 2, 3) for h in connected_graphs(k) for u in range(h.n)
              for s in range(1, 5) for t in range(s, 9 - s)]
    assert len(fed) == len(shifts) == 144
    for (before, _, [((t, s), drop, add)]), (h, u, *ts) in zip(fed, shifts):
        assert [t, s] == ts and before == h_gadget(h, u, t, s)
        assert (drop is None) == (s == 1)
        assert transforms.rewrite(before, drop, add).adj == path_shift(h, u, t, s).adj


def test_raises_q_leaves_what_it_cannot_certify_open(monkeypatch):
    """An unbracketed before (radius inf, a vector not positive) has no
    threshold, and an infinite sep clears nothing: each such instance is
    rewritten and solved instead of raising, and the unbracketed one and
    every one under sep = inf is a violation there, as a solved
    comparison gives it. The same edit at a bracketed before is
    certified unbuilt."""
    batches = []
    solve = harness.q_indices
    monkeypatch.setattr(harness, "q_indices",
                        lambda graphs: solve(batches.append(list(graphs)) or batches[-1]))
    before = path(3)
    base = spectral.q_index(before)
    unbracketed = SpectralResult(base.q, np.array([0.5, -0.5, 0.5 ** 0.5]), math.inf)
    # P_3 plus the edge 02 is K_3
    befores = [(before, unbracketed, [("a", None, (0, 2))]),
               (before, base, [("c", None, (0, 2))])]
    report = harness._raises_q("t", {}, iter(befores), 1e-9, str)
    assert batches == [[complete(3)]]
    assert report.status == REFUTED
    assert report.notes == ["instances checked: 2", "a did not raise q"]
    assert report.witness_graphs == [graph6_encode(before)]
    assert 0 < report.margin < 1
    batches.clear()
    harness._solved_level.cache_clear()
    report = check_lemma("edgemove2", [6], sep=math.inf)
    assert report.status == REFUTED and report.margin == math.inf
    assert report.notes[0] == "instances checked: 4" and len(report.notes) == 5
    assert [len(batch) for batch in batches] == [112, 4]  # the befores, then every after


def test_claim41_names_the_first_entry_outside_and_slack_before_it(monkeypatch):
    """With some Perron ratios pushed out of the interval and some radii
    made infinite, the report matches an entry-by-entry scan of each spec
    solved alone: the first entry outside is named, an unbracketed spec is
    a violation, each failing join is named once, and the slack covers
    only the entries before the first one outside."""
    solve = spectral.path_join_ratios

    def perturbed(parts_list):
        qs, ys, radii = solve(parts_list)
        ys, radii = ys.copy(), radii.copy()
        for i, parts in enumerate(parts_list):
            key = sum(a * a for a in parts) + len(parts)
            width = sum(parts)  # the join's own entries, before any padding
            if key % 4 == 1:  # two entries outside, the later one below
                ys[i, width - 1] = 0.0
                ys[i, key % (width - 1)] *= 40
            elif key % 4 == 2:
                ys[i, (key + 2) % width] = 0.0
            elif key % 8 == 3:  # no bracket, and an entry just inside that must not count
                radii[i] = math.inf
                ys[i, 0] = 1 / qs[i] + 1e-7
        return qs, ys, radii

    monkeypatch.setattr(harness, "path_join_ratios", perturbed)
    sep = 1e-9
    report = check_lemma("claim41", range(6, 16), sep)
    violations, witnesses, slack, count, seen = [], [], math.inf, 0, set()
    for spec in harness.claim41_specs(range(6, 16)):
        count += 1
        if spec.parts in seen:  # a sampled repeat of an earlier join
            continue
        seen.add(spec.parts)
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
    assert len(set(report.witness_graphs)) == 20
    assert report.margin == slack


def _claim41_per_order(n_range, sep):
    """The claim41 report's status, notes, witnesses and margin, with each
    order's distinct joins solved in one path_join_ratios call."""
    violations, slack, count = [], math.inf, 0
    for n, group in groupby(harness.claim41_specs(n_range), key=lambda spec: spec.order):
        specs = list(group)
        row = {parts: i for i, parts in enumerate(dict.fromkeys(spec.parts for spec in specs))}
        q, x, radii = spectral.path_join_ratios(row)
        q = q[:, None]
        lo, hi = 1 / q, 1 / q + 30 / (q * q)
        outside = ~((lo + sep < x) & (x < hi - sep))
        before = (~outside).cumprod(axis=1) > 0
        before[radii == math.inf] = False
        slack = min(slack, float((x - lo)[before].min(initial=slack)),
                    float((hi - x)[before].min(initial=slack)))
        for join, i in row.items():
            v = before[i].sum()
            if radii[i] == math.inf:
                violations.append((join, f"no bracket at q={q[i, 0]}"))
            elif v < n - 1:
                violations.append((join, f"entry x_{v}={x[i, v]} outside ({lo[i, 0]}, {hi[i, 0]})"))
        count += len(specs)
    status = CONFIRMED if not violations else REFUTED
    notes = [f"specs checked: {count}"] + [message for _, message in violations[:20]]
    witnesses = [graph6_encode(harness.path_join(join)) for join, _ in violations[:20]]
    return status, notes, witnesses, slack


@pytest.mark.parametrize("n_range", [range(6, 41), [6, 9, 40]])
@pytest.mark.parametrize("sep", [0, 1e-9, 1e-3])
def test_claim41_blocks_match_a_per_order_solve(monkeypatch, n_range, sep):
    """The report from mixed-order blocks is bit for bit the per-order
    one; each block stays within _JOIN_ENTRIES padded entries, each
    distinct join is solved exactly once, and the default run needs far
    fewer calls than its 35 orders."""
    blocks = []

    def recorder(parts_list):
        blocks.append(list(parts_list))
        return spectral.path_join_ratios(parts_list)

    monkeypatch.setattr(harness, "path_join_ratios", recorder)
    report = check_lemma("claim41", n_range, sep)
    status, notes, witnesses, slack = _claim41_per_order(n_range, sep)
    assert (report.status, report.notes, report.witness_graphs) == (status, notes, witnesses)
    assert report.margin == slack
    assert all(len(block) * (max(map(sum, block)) + 2) <= harness._JOIN_ENTRIES
               for block in blocks)
    distinct = dict.fromkeys(spec.parts for spec in harness.claim41_specs(n_range))
    assert [join for block in blocks for join in block] == list(distinct)
    if n_range == range(6, 41):
        assert len(blocks) < 35


def test_claim41_sep_widens_the_interval():
    """The least distance of a Perron ratio to the interval's ends is
    about 6.4e-4: sep = 0 confirms, sep = 1e-3 refutes."""
    report = check_lemma("claim41", sep=0)
    assert (report.status, report.parameters["sep"]) == (CONFIRMED, 0)
    assert report.margin == pytest.approx(PINNED_LEMMAS["claim41"][2], rel=0, abs=1e-12)
    report = check_lemma("claim41", sep=1e-3)
    assert report.status == REFUTED and report.parameters["sep"] == 1e-3
    assert len(report.notes) == 21 and report.notes[1].startswith("entry x_")
    assert len(set(report.witness_graphs)) == 20  # sampled repeats are named once


def test_claim41_builds_no_join_and_no_dense_solve(monkeypatch):
    """A clean default run solves its joins by path_join_ratios alone: no
    eigh call, no join Graph, no q_indices call."""

    def forbidden(*args):
        raise AssertionError("called")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(harness, "path_join", forbidden)
    monkeypatch.setattr(harness, "q_indices", forbidden)
    report = check_lemma("claim41")
    assert report.status == CONFIRMED and report.notes == ["specs checked: 2983"]


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
    bad.write_text("checks = lemma:nope\n")
    with pytest.raises(ConfigError, match="unknown lemma suite 'nope'"):
        run_campaign(bad)
    # a key given twice used to let its last line win
    bad.write_text("checks = cycle\nn_min = 5\nn_max = 5\nchecks = path\n")
    with pytest.raises(ConfigError, match="line 4: key 'checks' given twice"):
        parse_campaign_config(bad)
    # a repeated check used to run twice, overwrite its report and add a
    # second summary row; it is refused before anything is written
    out = tmp_path / "reports"
    for checks, repeated in [("cycle, cycle, lemma:delta, lemma:delta", "cycle:n=5,ell=3"),
                             ("lemma:delta, lemma:delta", "lemma:delta"),
                             ("lemma, lemma:delta", "lemma:delta"),
                             ("structural, cycle, structural", "structural:n=5,pattern=C3")]:
        bad.write_text(f"checks = {checks}\nn_min = 5\nn_max = 5\nout = {out}\n")
        with pytest.raises(ConfigError, match=f"check '{repeated}' is listed twice"):
            run_campaign(bad)
        assert not out.exists()


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


def test_campaign_prints_one_progress_line_per_task(tmp_path, monkeypatch, capsys):
    """Each finished task, an Error one too, gets `[k/N] <check id>
    <status> <runtime_ms> ms` on stderr, after its report is written."""
    real = harness.verify_cycle_theorem

    def ell4_fails(n, ell, sep):
        if ell == 4:
            raise RuntimeError("solver blew up")
        return real(n, ell, sep)

    monkeypatch.setattr(harness, "verify_cycle_theorem", ell4_fails)
    run_campaign(_campaign(tmp_path, "checks = cycle, lemma:delta\nn_min = 5\nn_max = 5\n"))
    out, err = capsys.readouterr()
    rows = list(csv.reader((tmp_path / "reports" / "summary.csv").open()))[1:]
    assert [row[:2] for row in rows] == [["cycle:n=5,ell=3", CONFIRMED],
                                         ["cycle:n=5,ell=4", ERROR],
                                         ["cycle:n=5,ell=5", CONFIRMED],
                                         ["lemma:delta", CONFIRMED]]
    assert out == ""
    assert err.splitlines() == [f"[{k}/4] {check_id} {status} {runtime_ms} ms"
                                for k, (check_id, status, _, runtime_ms) in enumerate(rows, 1)]


def test_campaign_times_a_check_that_raises(tmp_path, monkeypatch, capsys):
    """An Error report's runtime is the time its task ran before it
    raised, in its file, its summary row and its progress line."""
    clock = [100.0]
    monkeypatch.setattr(harness.time, "perf_counter", lambda: clock[0])
    real = harness.verify_cycle_theorem

    def ell4_fails(n, ell, sep):
        if ell == 4:
            clock[0] += 2.5
            raise RuntimeError("solver blew up")
        return real(n, ell, sep)

    monkeypatch.setattr(harness, "verify_cycle_theorem", ell4_fails)
    run_campaign(_campaign(tmp_path, "checks = cycle\nn_min = 5\nn_max = 5\n"))
    failed = VerificationReport.from_json((tmp_path / "reports" / "cycle_n5_ell4.json").read_text())
    assert (failed.status, failed.runtime_ms) == (ERROR, 2500)
    rows = list(csv.reader((tmp_path / "reports" / "summary.csv").open()))[1:]
    assert [(row[1], row[3]) for row in rows] == [(CONFIRMED, "0"), (ERROR, "2500"),
                                                  (CONFIRMED, "0")]
    assert capsys.readouterr().err.splitlines()[1] == "[2/3] cycle:n=5,ell=4 Error 2500 ms"


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
