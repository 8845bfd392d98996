import math
import random

import numpy as np
import pytest

from qouter.enumeration import EnumerationClass, extremal_argmax
from qouter.errors import EtaUndefinedError
from qouter.graphs import complete, cycle, disjoint_union, from_edges, path, star
from qouter.recognition import ForbiddenPattern
from qouter.spectral import (
    Ordering,
    eta,
    eta_exact,
    eta_max,
    q_compare,
    q_index,
    q_matrix,
    rayleigh_delta,
)

from .oracles import all_graphs_upto_iso, eig_q, q_root_bisection


def test_frozen_small_values():
    assert q_index(path(2)).q == pytest.approx(2.0, abs=1e-10)
    # char poly of Q(P3) is -x^3 + 4x^2 - 3x; its largest root pins q(P3)
    reference = q_root_bisection([-1.0, 4.0, -3.0, 0.0], 2.5, 3.5)
    assert reference == pytest.approx(3.0, abs=1e-9)
    assert q_index(path(3)).q == pytest.approx(reference, abs=1e-9)


def test_cycles_and_cliques():
    for n in range(3, 9):
        assert q_index(cycle(n)).q == pytest.approx(4.0, abs=1e-9)
        assert q_index(complete(n)).q == pytest.approx(2 * n - 2, abs=1e-9)


def test_stars():
    for n in range(2, 12):
        assert q_index(star(n)).q == pytest.approx(n, abs=1e-10)


def test_agrees_with_dense_eigensolver():
    for n in range(1, 7):
        for g in all_graphs_upto_iso(n):
            if g.is_connected():
                assert q_index(g).q == pytest.approx(eig_q(g), abs=1e-9)


def test_relabeling_invariance():
    rnd = random.Random(3)
    g = from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (0, 3)])
    q = q_index(g).q
    for _ in range(20):
        perm = list(range(7))
        rnd.shuffle(perm)
        assert q_index(g.permuted(perm)).q == pytest.approx(q, abs=1e-10)


def test_perron_vector_positive_and_accurate():
    g = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 2)])
    res = q_index(g)
    assert res.connected
    assert np.all(res.vector > 0)
    assert np.linalg.norm(res.vector) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(q_matrix(g) @ res.vector - res.q * res.vector) <= 1e-12
    assert res.radius <= 1e-12


def test_disconnected_takes_max_component():
    g = disjoint_union([path(2), star(6)])
    res = q_index(g)
    assert not res.connected
    assert res.q == pytest.approx(6.0, abs=1e-9)
    # vector supported on the star component
    assert np.allclose(res.vector[:2], 0)
    assert np.all(res.vector[2:] > 0)


def test_path_closed_form():
    # q(P_n) = 2 + 2cos(pi/n) shares no code with the solver; P_64 is the
    # capacity edge and the slowest case for an iterative solver
    assert q_index(path(1)).radius == 0
    for n in range(2, 65):
        res = q_index(path(n))
        exact = 2 + 2 * math.cos(math.pi / n)
        assert abs(res.q - exact) <= 1e-12
        assert res.q - res.radius <= exact <= res.q + res.radius


def test_no_bracket_without_a_positive_vector():
    # K_{1,20} with a 20-vertex pendant path: the Perron entries along the
    # path decay below rounding, so the computed vector is not positive
    edges = [(0, i) for i in range(1, 21)] + [(i, i + 1) for i in range(20, 40)]
    g = from_edges(41, edges)
    res = q_index(g)
    assert res.radius == math.inf
    assert res.q == pytest.approx(eig_q(g), abs=1e-9)
    assert q_compare(g, star(41)) is Ordering.INDISTINGUISHABLE


def test_cached_vector_is_read_only():
    before = q_index(path(4)).vector.copy()
    with pytest.raises(ValueError):
        q_index(path(4)).vector[:] = 0
    assert np.array_equal(q_index(path(4)).vector, before)
    with pytest.raises(ValueError):
        q_index(disjoint_union([path(2), star(4)])).vector[0] = 1.0


def test_sep_edge_values():
    g = cycle(6)
    h = g.permuted([1, 2, 3, 4, 5, 0])
    # sep = 0: only the enclosures have to be disjoint
    assert q_compare(complete(4), path(4), sep=0) is Ordering.GREATER
    assert q_compare(g, h, sep=0) is Ordering.INDISTINGUISHABLE
    result = extremal_argmax(EnumerationClass(5, ForbiddenPattern.cycle(4)), sep=0)
    assert result.unique and result.margin > 0
    for compare in (lambda: q_compare(g, h, sep=-1e-12),
                    lambda: extremal_argmax(EnumerationClass(5), sep=-1e-12)):
        with pytest.raises(ValueError, match="sep must be nonnegative"):
            compare()


def test_eta():
    s = star(6)
    assert eta(s, 0) == pytest.approx(6.0)
    assert eta(s, 1) == pytest.approx(6.0)
    assert eta_exact(path(3), 1) == 3
    assert eta_max(path(2)) == pytest.approx(2.0)
    with pytest.raises(EtaUndefinedError):
        eta(disjoint_union([path(1), path(2)]), 0)


def test_eta_upper_bounds_q():
    for n in range(2, 7):
        for g in all_graphs_upto_iso(n):
            if g.is_connected():
                assert q_index(g).q <= eta_max(g) + 1e-9


def test_rayleigh_delta_matches_matrices():
    g = cycle(6)
    x = q_index(g).vector
    after = g.remove_edge(0, 1).add_edge(0, 3)
    expected = float(x @ (q_matrix(after) - q_matrix(g)) @ x)
    assert rayleigh_delta(x, removed=[(0, 1)], added=[(0, 3)]) == pytest.approx(
        expected, abs=1e-12
    )


def test_q_compare():
    assert q_compare(complete(4), path(4)) is Ordering.GREATER
    assert q_compare(path(4), complete(4)) is Ordering.LESS
    g = cycle(6)
    h = g.permuted([1, 2, 3, 4, 5, 0])
    assert q_compare(g, h) is Ordering.INDISTINGUISHABLE
    with pytest.raises(ValueError):
        q_compare(g, h, sep=-1.0)


def test_q_monotone_under_edge_addition():
    g = path(5)
    assert q_compare(g.add_edge(0, 4), g) is Ordering.GREATER
