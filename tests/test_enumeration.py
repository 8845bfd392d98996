import pytest

from qouter.canon import canonical_code
from qouter.enumeration import (
    ArgmaxResult,
    EnumerationClass,
    connected_graphs,
    connected_outerplanar,
    enumerate_class,
    extremal_argmax,
    outerplanar_graphs,
)
from qouter.errors import CapacityError
from qouter.graphs import path, star
from qouter.recognition import ForbiddenPattern, is_f_free, is_outerplanar

from .oracles import all_graphs_upto_iso

# https://oeis.org/A001349 (connected graphs up to isomorphism)
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
CONNECTED_OUTERPLANAR_COUNTS = {
    1: 1, 2: 1, 3: 2, 4: 5, 5: 13, 6: 46, 7: 172, 8: 777, 9: 3783
}


def test_connected_counts():
    for n, expected in CONNECTED_COUNTS.items():
        assert len(connected_graphs(n)) == expected, f"n={n}"


def test_connected_outerplanar_counts():
    for n, expected in CONNECTED_OUTERPLANAR_COUNTS.items():
        assert len(connected_outerplanar(n)) == expected, f"n={n}"


def test_generation_matches_filter_all():
    """Completeness: generated classes equal brute-force filtered classes."""
    for n in range(1, 7):
        universe = all_graphs_upto_iso(n)
        expected_conn = {
            canonical_code(g) for g in universe if g.is_connected()
        }
        assert {canonical_code(g) for g in connected_graphs(n)} == expected_conn
        expected_cop = {
            canonical_code(g)
            for g in universe
            if g.is_connected() and is_outerplanar(g)
        }
        assert {canonical_code(g) for g in connected_outerplanar(n)} == expected_cop
        expected_op = {canonical_code(g) for g in universe if is_outerplanar(g)}
        assert {canonical_code(g) for g in outerplanar_graphs(n)} == expected_op


def test_members_pairwise_nonisomorphic():
    for n in range(1, 8):
        graphs = connected_outerplanar(n)
        codes = {canonical_code(g) for g in graphs}
        assert len(codes) == len(graphs)


def test_enumerate_class_filters_pattern():
    pattern = ForbiddenPattern.cycle(3)
    members = list(enumerate_class(EnumerationClass(6, pattern)))
    assert all(is_f_free(g, pattern) for g in members)
    by_filter = [g for g in connected_outerplanar(6) if is_f_free(g, pattern)]
    assert len(members) == len(by_filter)


def test_capacity_cap():
    for n in (11, 0, -1):
        for generator in (connected_outerplanar, outerplanar_graphs, connected_graphs):
            with pytest.raises(CapacityError):
                generator(n)
        for connected in (True, False):
            with pytest.raises(CapacityError):
                list(enumerate_class(EnumerationClass(n, require_connected=connected)))


def test_connected_outerplanar_has_deletable_vertex():
    """The deletion rule behind 1-2 neighbour masks: a non-cut vertex of
    degree <= 2 exists in every connected outerplanar graph with n >= 2."""
    for n in range(2, 9):
        for g in connected_outerplanar(n):
            assert any(
                g.degree(v) <= 2 and g.delete_vertex(v).is_connected()
                for v in range(n)
            ), g.adj


def test_outerplanar_has_vertex_of_degree_at_most_two():
    for n in range(1, 8):
        for g in outerplanar_graphs(n):
            assert min(row.bit_count() for row in g.adj) <= 2, g.adj


@pytest.mark.parametrize(
    "generator", [connected_outerplanar, outerplanar_graphs, connected_graphs]
)
def test_level_built_from_cached_level_below(generator):
    generator.cache_clear()
    generator(4)
    before = generator.cache_info()
    assert (before.misses, before.currsize) == (4, 4)
    generator(5)
    after = generator.cache_info()
    assert after.misses == before.misses + 1  # level 5 only
    assert after.hits == before.hits + 1  # level 4, read from the cache
    assert after.currsize == 5


def test_argmax_small_classes():
    # the only connected graph on 2 vertices
    result = extremal_argmax(EnumerationClass(2))
    assert len(result.graphs) == 1 and result.margin == float("inf")
    assert result.q == pytest.approx(2.0, abs=1e-9)

    # triangle-free order 6: the star wins uniquely
    result = extremal_argmax(EnumerationClass(6, ForbiddenPattern.cycle(3)))
    assert result.unique
    assert canonical_code(result.graphs[0]) == canonical_code(star(6))
    assert result.q == pytest.approx(6.0, abs=1e-8)
    assert result.margin > 0.1

    # unconstrained connected outerplanar order 5: the maximal fan K_1 v P_4
    result = extremal_argmax(EnumerationClass(5))
    assert result.unique
    fan = path(4).with_new_vertex(0b1111)
    assert canonical_code(result.graphs[0]) == canonical_code(fan)


def test_argmax_stable_under_sep():
    cls = EnumerationClass(6, ForbiddenPattern.cycle(4))
    tight = extremal_argmax(cls, 1e-9)
    loose = extremal_argmax(cls, 1e-6)
    assert [canonical_code(g) for g in tight.graphs] == [
        canonical_code(g) for g in loose.graphs
    ]


def test_argmax_empty_class_raises():
    with pytest.raises(CapacityError):
        extremal_argmax(EnumerationClass(4, ForbiddenPattern.paths(1, 2)))


def test_unique_property():
    r = ArgmaxResult((path(3),), 3.0, 0.5)
    assert r.unique
    r = ArgmaxResult((path(3), star(3)), 3.0, 0.5)
    assert not r.unique
