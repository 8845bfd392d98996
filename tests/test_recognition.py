import random
from itertools import combinations

import pytest

from qouter.constructions import path_join
from qouter.enumeration import connected_outerplanar
from qouter.errors import PatternError
from qouter.graphs import Graph, bits, complete, cycle, disjoint_union, from_edges, path, star
from qouter.recognition import (
    ForbiddenPattern,
    common_neighbors,
    contains_cycle,
    contains_disjoint_paths,
    is_f_free,
    is_outerplanar,
    neighborhood_is_paths,
)

from .oracles import (
    all_graphs_upto_iso,
    cycle_oracle,
    outerplanar_minor_oracle,
    outerplanar_oracle,
    path_pack_oracle,
)

K4_GRAPH = complete(4)
K23_GRAPH = from_edges(5, [(a, b) for a in range(2) for b in range(2, 5)])


def maximal_fan(n):
    """K_1 joined to P_{n-1}: a maximal outerplanar graph."""
    g = path(n - 1)
    return g.with_new_vertex((1 << (n - 1)) - 1)


# -- pattern objects --------------------------------------------------


def test_pattern_parse_and_str():
    assert ForbiddenPattern.parse("C5") == ForbiddenPattern.cycle(5)
    assert ForbiddenPattern.parse("2P3") == ForbiddenPattern.paths(2, 3)
    assert ForbiddenPattern.parse("P4") == ForbiddenPattern.paths(1, 4)
    assert str(ForbiddenPattern.cycle(4)) == "C4"
    assert str(ForbiddenPattern.paths(2, 2)) == "2P2"
    assert str(ForbiddenPattern.paths(1, 6)) == "P6"


def test_pattern_validation():
    with pytest.raises(PatternError):
        ForbiddenPattern.cycle(2)
    with pytest.raises(PatternError):
        ForbiddenPattern.paths(0, 3)
    with pytest.raises(PatternError):
        ForbiddenPattern.paths(2, 1)
    with pytest.raises(PatternError):
        ForbiddenPattern.parse("X7")
    with pytest.raises(PatternError):
        ForbiddenPattern("wheel", 5)
    # lengths and counts are ints; a bool is none
    for bad in (lambda: ForbiddenPattern.cycle(4.5), lambda: ForbiddenPattern.cycle(4.0),
                lambda: ForbiddenPattern.paths(True, 4), lambda: ForbiddenPattern.paths(2, 3.0)):
        with pytest.raises(PatternError, match="pattern needs int ell and t"):
            bad()


# -- outerplanarity ----------------------------------------------------


def test_outerplanar_known_graphs():
    assert is_outerplanar(path(10))
    assert is_outerplanar(cycle(12))
    assert is_outerplanar(star(20))
    assert is_outerplanar(maximal_fan(9))
    assert not is_outerplanar(K4_GRAPH)
    assert not is_outerplanar(K23_GRAPH)
    assert not is_outerplanar(complete(5))
    assert is_outerplanar(complete(3))
    # K4 minus an edge is outerplanar
    assert is_outerplanar(K4_GRAPH.remove_edge(0, 1))
    # disconnected graphs: outerplanar iff every component is
    assert is_outerplanar(disjoint_union([cycle(4), path(3)]))
    assert not is_outerplanar(disjoint_union([K4_GRAPH, path(3)]))


def test_outerplanar_matches_contraction_oracle():
    for n in range(1, 7):
        for g in all_graphs_upto_iso(n):
            assert is_outerplanar(g) == outerplanar_oracle(g)


def test_children_match_minor_oracle():
    """Every child, by a vertex with 0-3 neighbours, of a connected
    outerplanar graph with n <= 8: the children generation tests (two
    neighbours), the ones it need not (a leaf; no neighbour leaves the
    child disconnected), and three-neighbour ones, whose rejects it never
    builds."""
    rejected = [0] * 4
    for n in range(1, 9):
        for parent in connected_outerplanar(n):
            for mask in range(1 << n):
                if mask.bit_count() > 3:
                    continue
                child = parent.with_new_vertex(mask)
                expected = outerplanar_minor_oracle(child)
                assert is_outerplanar(child) == expected, child.adj
                rejected[mask.bit_count()] += not expected
    assert rejected[:2] == [0, 0] and rejected[2] > 0 and rejected[3] > 0


def _random_graph(rng, n, extra=None):
    """A random tree on n vertices plus up to `extra` (n/2 by default)
    random edges: near outerplanar, so both answers are common."""
    rows = [0] * n
    edges = [(v, rng.randrange(v)) for v in range(1, n)]
    edges += [rng.sample(range(n), 2) for _ in range(rng.randint(0, n // 2 if extra is None else extra))]
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def test_outerplanar_independent_of_labels():
    """The reduction's queue order follows the labels, so every graph with
    n <= 7 is tested under seeded random relabellings, and random graphs
    with n <= 40 against the minor oracle."""
    rng = random.Random(7)
    for n in range(1, 8):
        for g in all_graphs_upto_iso(n):
            expected = outerplanar_minor_oracle(g)
            for _ in range(2):
                perm = rng.sample(range(n), n)
                assert is_outerplanar(g.permuted(perm)) == expected, (g.adj, perm)
    verdicts = set()
    for _ in range(1500):
        g = _random_graph(rng, rng.randint(5, 40))
        expected = outerplanar_minor_oracle(g)
        assert is_outerplanar(g) == expected, g.adj
        verdicts.add(expected)
    assert verdicts == {True, False}


def _subdivided(h):
    """h with every edge replaced by a path of length 2."""
    edges = []
    extra = h.n
    for u, v in h.edges():
        edges += [(u, extra), (extra, v)]
        extra += 1
    return from_edges(extra, edges)


def test_subdivided_obstructions_detected():
    # subdividing every edge keeps the minor but removes the subgraph
    for h in (K4_GRAPH, K23_GRAPH):
        g = _subdivided(h)
        assert not is_outerplanar(g)
        assert not outerplanar_minor_oracle(g)
    # hubs 0 and 1 joined by a path 0-2-1, by 0-3-1 with an ear 3-4-1 and by
    # 0-5-1 with an ear 0-6-5: the smoothed ears leave side counts of 1 that
    # the branches carry into the hub pair
    g = from_edges(7, [(0, 2), (2, 1), (0, 3), (3, 1), (3, 4), (4, 1),
                       (0, 5), (5, 1), (0, 6), (6, 5)])
    assert not outerplanar_minor_oracle(g)
    assert not is_outerplanar(g)
    assert is_outerplanar(g.remove_edge(0, 2))


# -- containment -------------------------------------------------------


def test_contains_cycle_known():
    assert contains_cycle(cycle(5), 5)
    assert not contains_cycle(cycle(5), 4)
    assert not contains_cycle(path(9), 3)
    assert not contains_cycle(cycle(5), 6)  # longer than the graph
    assert contains_cycle(complete(5), 3)
    assert contains_cycle(complete(5), 5)
    with pytest.raises(PatternError):
        contains_cycle(path(4), 2)


@pytest.mark.parametrize("search, args", [
    (contains_cycle, (cycle(4), 3.5)),
    (contains_cycle, (cycle(4), 4.0)),
    (contains_cycle, (cycle(4), True)),
    (contains_disjoint_paths, (path(6), 1.5, 2)),
    (contains_disjoint_paths, (path(6), True, 2)),
    (contains_disjoint_paths, (path(6), 2, 3.0)),
    (contains_disjoint_paths, (path(6), 1, False)),
])
def test_containment_lengths_must_be_ints(search, args):
    """A count or length that is not an int is refused, not answered; a
    bool counts as no int."""
    with pytest.raises(PatternError, match="int"):
        search(*args)


def test_contains_cycle_matches_oracle():
    for n in range(3, 7):
        for g in all_graphs_upto_iso(n):
            for ell in range(3, n + 1):
                assert contains_cycle(g, ell) == cycle_oracle(g, ell), (
                    g,
                    ell,
                )


def test_contains_disjoint_paths_known():
    assert contains_disjoint_paths(path(6), 1, 6)
    assert not contains_disjoint_paths(path(6), 1, 7)
    assert contains_disjoint_paths(path(6), 3, 2)
    assert contains_disjoint_paths(path(6), 2, 3)
    assert not contains_disjoint_paths(star(7), 2, 2)
    assert not contains_disjoint_paths(star(7), 1, 4)
    assert contains_disjoint_paths(cycle(6), 2, 3)
    with pytest.raises(PatternError):
        contains_disjoint_paths(path(4), 0, 2)


def test_contains_disjoint_paths_matches_oracle():
    cases = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 2), (2, 3), (3, 2)]
    for n in range(2, 7):
        for g in all_graphs_upto_iso(n):
            for t, ell in cases:
                assert contains_disjoint_paths(g, t, ell) == path_pack_oracle(
                    g, t, ell
                ), (g, t, ell)


def test_containment_matches_oracles_on_larger_graphs():
    """Seeded random graphs with n = 8..12, sparse and denser, against both
    oracles: every cycle length, and every (t, ell) with t * ell <= n."""
    rng = random.Random(13)
    answers = set()
    for n in range(8, 13):
        for extra in (n // 2, n // 2, n, n):
            g = _random_graph(rng, n, extra)
            for ell in range(3, n + 1):
                expected = cycle_oracle(g, ell)
                assert contains_cycle(g, ell) == expected, (g.adj, ell)
                answers.add(("C", expected))
            for t in range(1, 5):
                for ell in range(2, n // t + 1):
                    expected = path_pack_oracle(g, t, ell)
                    assert contains_disjoint_paths(g, t, ell) == expected, (g.adj, t, ell)
                    answers.add((t, expected))
    assert answers == {(k, a) for k in ("C", 1, 2, 3, 4) for a in (True, False)}


def test_containment_independent_of_labels():
    """The searches grow paths from low labels first, so random graphs and
    path joins with n = 13..24 must give one answer under seeded
    relabellings."""
    rng = random.Random(17)
    patterns = [ForbiddenPattern.cycle(ell) for ell in (3, 4, 5, 6, 8, 10)]
    patterns += [ForbiddenPattern.paths(t, ell) for t, ell in
                 ((1, 6), (1, 9), (2, 3), (2, 5), (3, 2), (3, 4), (4, 3))]
    answers = set()
    for n in range(13, 25):
        parts = []
        while sum(parts) < n - 1:
            parts.append(min(rng.randint(1, 6), n - 1 - sum(parts)))
        for g in (_random_graph(rng, n), path_join(parts)):
            for pattern in patterns:
                expected = is_f_free(g, pattern)
                perm = rng.sample(range(n), n)
                assert is_f_free(g.permuted(perm), pattern) == expected, (g.adj, pattern, perm)
                answers.add((pattern.kind, expected))
    assert answers == {(k, a) for k in ("cycle", "paths") for a in (True, False)}


def test_is_f_free():
    assert is_f_free(path(5), ForbiddenPattern.cycle(3))
    assert not is_f_free(cycle(4), ForbiddenPattern.cycle(4))
    assert is_f_free(star(6), ForbiddenPattern.paths(1, 4))
    assert not is_f_free(path(6), ForbiddenPattern.paths(2, 3))


# -- neighborhood predicates -------------------------------------------


def test_neighborhood_is_paths():
    fan = maximal_fan(7)
    assert neighborhood_is_paths(fan, 6)  # hub sees P6
    wheel = cycle(5).with_new_vertex(0b11111)
    assert not neighborhood_is_paths(wheel, 5)  # hub sees C5
    assert neighborhood_is_paths(star(8), 0)  # isolated vertices are paths
    assert neighborhood_is_paths(path(4), 0)
    g = complete(4)
    assert not neighborhood_is_paths(g, 0)  # sees a triangle


def _paths_by_subsets(g, u):
    """N(u) induces a union of paths iff it has maximum degree <= 2 and
    every nonempty subset S of it induces at most |S| - 1 edges."""
    nbrs = list(bits(g.adj[u]))
    mask = g.adj[u]
    if any((g.adj[v] & mask).bit_count() > 2 for v in nbrs):
        return False
    for k in range(3, len(nbrs) + 1):
        for subset in combinations(nbrs, k):
            inside = sum(1 << v for v in subset)
            edges = sum((g.adj[v] & inside).bit_count() for v in subset) // 2
            if edges >= k:
                return False
    return True


def test_neighborhood_is_paths_matches_subset_check():
    for n in range(1, 8):
        for g in all_graphs_upto_iso(n):
            for u in range(n):
                assert neighborhood_is_paths(g, u) == _paths_by_subsets(g, u), (g.adj, u)


def test_common_neighbors():
    g = cycle(4)
    assert common_neighbors(g, 0, 2) == (1, 3)
    assert common_neighbors(g, 0, 1) == ()
    assert common_neighbors(star(5), 1, 2) == (0,)
