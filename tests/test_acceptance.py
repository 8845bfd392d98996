"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The criteria pin the project-level guarantees: exact star spectra, the
desk-scale extremal theorems, strict monotonicity of every rewrite lemma,
the eigenvector bound for join constructions, and agreement between the
production recognition code and independent brute-force oracles.
"""

import time

import pytest

from qouter.canon import canonical_code
from qouter.constructions import cycle_extremal, path_extremal
from qouter.enumeration import EnumerationClass, extremal_argmax
from qouter.graphs import star
from qouter.harness import (
    CONFIRMED,
    OUT_OF_SCOPE,
    REFUTED,
    check_lemma,
    verify_cycle_theorem,
    verify_path_theorem,
)
from qouter.recognition import (
    ForbiddenPattern,
    contains_cycle,
    contains_disjoint_paths,
    is_outerplanar,
)
from qouter.spectral import q_index
from qouter.transforms import greedy_ascent

from .oracles import (
    all_graphs_upto_iso,
    cycle_oracle,
    outerplanar_oracle,
    path_pack_oracle,
)


def conclude(capsys, label, failures, detail, elapsed, budget=None):
    ok = not failures and (budget is None or elapsed <= budget)
    line = f"[{label}] {'PASS' if ok else 'FAIL'}: {detail} ({elapsed:.1f}s)"
    with capsys.disabled():
        print("\n" + line)
    assert not failures, f"{label}: {failures[:5]}"
    if budget is not None:
        assert elapsed <= budget, f"{label}: {elapsed:.1f}s over {budget}s budget"


def test_criterion_1_star_spectrum(capsys):
    start = time.perf_counter()
    failures = []
    for n in range(2, 33):
        q = q_index(star(n)).q
        if abs(q - n) > 1e-10:
            failures.append((n, q))
    elapsed = time.perf_counter() - start
    conclude(capsys, "criterion-1 star-spectrum", failures,
             "q(K_1,n-1) = n within 1e-10 for 2 <= n <= 32", elapsed, budget=1.0)


def test_criterion_2_star_theorem(capsys):
    start = time.perf_counter()
    patterns = [
        ForbiddenPattern.paths(1, 4),
        ForbiddenPattern.paths(2, 2),
        ForbiddenPattern.cycle(3),
    ]
    failures = []
    for n in range(5, 10):
        expected = canonical_code(star(n))
        for pattern in patterns:
            result = extremal_argmax(EnumerationClass(n, pattern))
            codes = [canonical_code(g) for g in result.graphs]
            if codes != [expected] or result.margin <= 1e-9:
                failures.append((n, str(pattern), result.margin))
    elapsed = time.perf_counter() - start
    conclude(capsys, "criterion-2 star-theorem", failures,
             "unique star argmax for P4/2P2/C3, n = 5..9, margin > 1e-9",
             elapsed, budget=120.0)


def test_criterion_3_cycle_theorem(capsys):
    start = time.perf_counter()
    failures = []
    cells = 0
    for n in range(5, 10):
        for ell in range(3, n + 1):
            cells += 1
            report = verify_cycle_theorem(n, ell)
            if report.status != CONFIRMED:
                # the theorem claims all n, so any failing cell is a finding
                failures.append((n, ell, report.status, report.witness_graphs))
    elapsed = time.perf_counter() - start
    conclude(capsys, "criterion-3 cycle-theorem", failures,
             f"{cells} (n, ell) cells uniquely match the construction",
             elapsed, budget=900.0)


def test_criterion_4_move_monotonicity(capsys):
    start = time.perf_counter()
    failures = []
    for name in ("addedges", "perron", "edgemove2", "edgemove3", "edgemove",
                 "edgeshift"):
        report = check_lemma(name)
        if report.status != CONFIRMED:
            failures.append((name, report.notes[:3]))
    elapsed = time.perf_counter() - start
    conclude(capsys, "criterion-4 move-monotonicity", failures,
             "all rewrite suites strictly increase q with certified separation",
             elapsed, budget=1200.0)


def test_criterion_5_bound_suites(capsys):
    start = time.perf_counter()
    failures = []
    for name, n_range in (("delta", range(2, 8)), ("qmu", range(2, 8)),
                          ("obv", range(2, 9))):
        report = check_lemma(name, n_range)
        if report.status != CONFIRMED:
            failures.append((name, report.notes[:3]))
    elapsed = time.perf_counter() - start
    conclude(capsys, "criterion-5 bound-suites", failures,
             "degree/eta bounds (n <= 7) and structure facts (n <= 8) hold "
             "(pair-disjointness in its adjacency-restricted form; the "
             "literal form has outerplanar counterexamples, see notes)",
             elapsed)


def test_criterion_6_join_eigenvector_bound(capsys):
    start = time.perf_counter()
    report = check_lemma("claim41", range(6, 41))
    failures = [] if report.status == CONFIRMED else [report.notes[:3]]
    elapsed = time.perf_counter() - start
    conclude(capsys, "criterion-6 join-eigenvector-bound", failures,
             "1/q < x_v < 1/q + 30/q^2 on all sampled joins, 6 <= n <= 40",
             elapsed)


def test_criterion_7_path_theorem_reports(capsys):
    start = time.perf_counter()
    failures = []
    produced = 0
    for t, ell in ((1, 4), (1, 5), (1, 6), (2, 2), (2, 3)):
        for n in range(t * ell + 1, 10):
            report = verify_path_theorem(n, t, ell)
            produced += 1
            if report.status not in (CONFIRMED, OUT_OF_SCOPE):
                failures.append((n, t, ell, report.status))
            candidate, _, _ = path_extremal(n, t, ell)
            if greedy_ascent(candidate, ForbiddenPattern.paths(t, ell))[1]:
                failures.append((n, t, ell, "candidate not a local maximum"))
            if report.status == OUT_OF_SCOPE and not report.witness_graphs:
                failures.append((n, t, ell, "out-of-scope report lacks data"))
    elapsed = time.perf_counter() - start
    conclude(capsys, "criterion-7 path-theorem-reports", failures,
             f"{produced} reports, all candidates local maxima, "
             "no silent mismatches", elapsed)


def test_criterion_8_oracle_equivalence(capsys):
    start = time.perf_counter()
    failures = []
    checked = 0
    path_cases = [(1, k) for k in range(2, 8)] + [(2, 2), (2, 3), (3, 2)]
    for n in range(1, 8):
        for g in all_graphs_upto_iso(n):
            if is_outerplanar(g) != outerplanar_oracle(g):
                failures.append(("outerplanar", g))
            for ell in range(3, n + 1):
                checked += 1
                if contains_cycle(g, ell) != cycle_oracle(g, ell):
                    failures.append(("cycle", ell, g))
            for t, ell in path_cases:
                checked += 1
                if contains_disjoint_paths(g, t, ell) != path_pack_oracle(g, t, ell):
                    failures.append(("paths", t, ell, g))
    elapsed = time.perf_counter() - start
    conclude(capsys, "criterion-8 oracle-equivalence", failures,
             f"{checked} containment queries and all outerplanarity calls "
             "agree with brute-force oracles on n <= 7", elapsed)
