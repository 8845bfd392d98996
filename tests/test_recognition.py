import pytest

from qouter.enumeration import connected_outerplanar, outerplanar_graphs
from qouter.errors import PatternError
from qouter.graphs import bits, complete, cycle, disjoint_union, from_edges, path, star
from qouter.recognition import (
    K4,
    K23,
    ForbiddenPattern,
    common_neighbors,
    contains_cycle,
    contains_disjoint_paths,
    has_minor,
    is_f_free,
    is_outerplanar,
    is_outerplanar_extension,
    neighborhood_is_paths,
)

from .oracles import (
    all_graphs_upto_iso,
    cycle_oracle,
    minor_by_contraction,
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


def test_has_minor_matches_contraction_oracle():
    for n in range(1, 7):
        for g in all_graphs_upto_iso(n):
            assert has_minor(g, K4) == minor_by_contraction(g, K4_GRAPH)
            assert has_minor(g, K23) == minor_by_contraction(g, K23_GRAPH)
            assert is_outerplanar(g) == outerplanar_oracle(g)


def test_outerplanar_extension_matches_full_test():
    """Every child, by a vertex with at most two neighbours, of a
    connected outerplanar graph with n <= 8 and of an outerplanar graph
    with n <= 7; the children with n <= 6 also against the oracle."""
    rejected_by_flow = 0
    for parents, low, top in ((connected_outerplanar, 1, 8), (outerplanar_graphs, 0, 7)):
        for n in range(1, top + 1):
            for parent in parents(n):
                for mask in range(1 << n):
                    if not low <= mask.bit_count() <= 2:
                        continue
                    child = parent.with_new_vertex(mask)
                    expected = is_outerplanar(child)
                    assert is_outerplanar_extension(child) == expected, child.adj
                    if child.n <= 6:
                        assert expected == outerplanar_oracle(child), child.adj
                    adjacent = mask.bit_count() == 2 and parent.has_edge(*bits(mask))
                    rejected_by_flow += adjacent and not expected
    assert rejected_by_flow > 0


def test_has_minor_rejects_unknown_pattern():
    with pytest.raises(PatternError):
        has_minor(path(3), "K5")


def test_subdivided_obstructions_detected():
    # subdivide every edge of K4: still a K4 minor, no K4 subgraph
    edges = list(K4_GRAPH.edges())
    big_edges = []
    extra = 4
    for u, v in edges:
        big_edges += [(u, extra), (extra, v)]
        extra += 1
    g = from_edges(extra, big_edges)
    assert has_minor(g, K4)
    assert not is_outerplanar(g)


# -- containment -------------------------------------------------------


def test_contains_cycle_known():
    assert contains_cycle(cycle(5), 5)
    assert not contains_cycle(cycle(5), 4)
    assert not contains_cycle(path(9), 3)
    assert contains_cycle(complete(5), 3)
    assert contains_cycle(complete(5), 5)
    with pytest.raises(PatternError):
        contains_cycle(path(4), 2)


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


def test_common_neighbors():
    g = cycle(4)
    assert common_neighbors(g, 0, 2) == (1, 3)
    assert common_neighbors(g, 0, 1) == ()
    assert common_neighbors(star(5), 1, 2) == (0,)
