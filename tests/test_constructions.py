import time

import pytest

from qouter import constructions
from qouter.canon import canonical_code
from qouter.constructions import (
    PathJoinSpec,
    cycle_extremal,
    h_gadget,
    join_is_f_free,
    path_extremal,
    path_join,
)
from qouter.errors import CapacityError, ParameterError
from qouter.graphs import Graph, path, star
from qouter.harness import _partitions
from qouter.recognition import (
    ForbiddenPattern,
    contains_cycle,
    contains_disjoint_paths,
    is_f_free,
    is_outerplanar,
)
from qouter.spectral import path_join_ratios

from .oracles import cycle_oracle, path_pack_oracle


def test_spec_normalization():
    spec = PathJoinSpec((1, 3, 0, 2))
    assert spec.parts == (3, 2, 1)
    assert spec.order == 7
    with pytest.raises(ParameterError):
        PathJoinSpec((2, -1))
    with pytest.raises(ParameterError):
        PathJoinSpec((0, 0))
    with pytest.raises(CapacityError):
        PathJoinSpec((64,))


@pytest.mark.parametrize("parts", [(2.0, 1), (True, True, 2), (3, 0.0), (4, 1.5), ("2", 1)])
def test_path_join_orders_must_be_ints(parts):
    """A spec and a join refuse path orders that are not ints; a bool
    counts as no int."""
    with pytest.raises(ParameterError, match="ints, got"):
        PathJoinSpec(parts)
    with pytest.raises(ParameterError, match="ints, got"):
        path_join(parts)


@pytest.mark.parametrize("parts", [[(True, 3)], [(2.0, 2)], [(4,), (2.5, 1.5)], [(3, 1), (3, True)],
                                   [("2", 2)], [(4,), (None,)]])
def test_path_join_ratios_take_only_int_parts(parts):
    """The secular solve refuses joins whose parts are not ints, before it
    sums them; the first four have one order n = 5 and parts >= 1."""
    with pytest.raises(ParameterError, match="int parts"):
        path_join_ratios(parts)


def test_path_join_structure():
    g = path_join([2, 2, 2])
    hub = g.n - 1
    assert g.n == 7
    assert g.degree(hub) == 6
    assert g.m == 6 + 3  # join edges plus one edge per P2
    assert is_outerplanar(g) and g.is_connected()
    # a single part of size 1 gives P2
    assert canonical_code(path_join([1])) == canonical_code(path(2))


def test_cycle_extremal_examples():
    g, alpha, r = cycle_extremal(7, 4)
    assert (alpha, r) == (3, 0)
    assert canonical_code(g) == canonical_code(path_join([2, 2, 2]))

    g, alpha, r = cycle_extremal(12, 3)
    assert (alpha, r) == (11, 0)
    assert canonical_code(g) == canonical_code(star(12))

    g, alpha, r = cycle_extremal(9, 5)
    assert (alpha, r) == (2, 2)
    assert canonical_code(g) == canonical_code(path_join([3, 3, 2]))


def test_cycle_extremal_class_membership():
    for n in range(5, 13):
        for ell in range(3, n + 1):
            g, alpha, r = cycle_extremal(n, ell)
            assert g.n == n
            assert alpha * (ell - 2) + r == n - 1
            assert is_outerplanar(g) and g.is_connected()
            assert is_f_free(g, ForbiddenPattern.cycle(ell))
            if n <= 8:
                assert not cycle_oracle(g, ell)


def test_cycle_extremal_validation():
    with pytest.raises(ParameterError):
        cycle_extremal(5, 2)
    with pytest.raises(ParameterError):
        cycle_extremal(4, 5)


def test_path_extremal_star_case():
    g, alpha, r = path_extremal(12, 1, 4)
    assert (alpha, r) == (10, 0)
    assert canonical_code(g) == canonical_code(star(12))


def hub_part_sizes(g):
    """Component orders after removing the hub; asserts the join shape."""
    hub = max(range(g.n), key=g.degree)
    assert g.degree(hub) == g.n - 1
    rest = g.induced(set(range(g.n)) - {hub})
    sizes = []
    for comp in rest.components():
        part = rest.induced(i for i in range(rest.n) if (comp >> i) & 1)
        assert part.m == part.n - 1 and part.max_degree() <= 2  # a path
        sizes.append(part.n)
    return sorted(sizes, reverse=True)


def printed_parts(n, t, ell):
    """The paper's printed closed forms for the tP_ell candidate's parts."""
    if t == 1:
        a1, part = (ell - 1) // 2, (ell - 2) // 2
        alpha = (n - ell + 1) // part + 1
        r = n - ell + 1 - (alpha - 1) * part
    else:
        a1, part = t * ell - ell - 1, ell - 1
        alpha = (n - t + 2) // (ell - 1) - t + 1
        r = n - 2 * ell + 2 - (alpha - 1) * (ell - 1)
    return sorted([a1] + [part] * alpha + ([r] if r else []), reverse=True)


def test_path_extremal_printed_formula_agrees():
    g, alpha, r = path_extremal(16, 1, 6)
    assert (alpha, r) == (6, 1)
    assert hub_part_sizes(g) == [2] * 7 + [1]
    assert printed_parts(16, 1, 6) == hub_part_sizes(g)


def test_path_extremal_printed_formula_discrepancy():
    g, alpha, r = path_extremal(20, 2, 3)
    assert (alpha, r) == (8, 1)
    assert hub_part_sizes(g) == [2] * 9 + [1]
    # printed closed form misses the part-sum identity here
    assert sum(printed_parts(20, 2, 3)) != 20 - 1
    assert printed_parts(20, 2, 3) != hub_part_sizes(g)


def test_path_extremal_printed_formula_matches_iff_t_is_1():
    """The printed closed forms give the built candidate's parts exactly
    when t = 1; for every t >= 2 they miss the part-sum identity."""
    cells = 0
    for n in range(5, 65):
        for t in range(1, n):
            for ell in range(4 if t == 1 else 2, (n - 1) // t + 1):
                printed = printed_parts(n, t, ell)
                assert (printed == hub_part_sizes(path_extremal(n, t, ell)[0])) == (t == 1)
                assert (sum(printed) == n - 1) == (t == 1)
                cells += 1
    assert cells == 5685


def test_path_extremal_part_sum_identity():
    for t, ell in [(1, 4), (1, 5), (1, 6), (2, 2), (2, 3), (3, 2)]:
        for n in range(t * ell + 1, t * ell + 12):
            g, alpha, r = path_extremal(n, t, ell)
            assert g.n == n
            assert g.is_connected() and is_outerplanar(g)
            assert is_f_free(g, ForbiddenPattern.paths(t, ell))
            if n <= 8:
                assert not path_pack_oracle(g, t, ell)


def test_join_is_f_free_matches_the_searches():
    """The closed form against contains_cycle and contains_disjoint_paths on
    every path join of order n <= 13, for every C_ell and, at the largest t
    the search packs and the next one, every tP_ell; containment is monotone
    in t, so those two decide every t."""
    cases = 0
    for n in range(2, 14):
        for parts in _partitions(n - 1):
            g = path_join(parts)
            for ell in range(3, n + 1):
                assert join_is_f_free(parts, ForbiddenPattern.cycle(ell)) == (
                    not contains_cycle(g, ell)), (parts, ell)
                cases += 1
            for ell in range(2, n + 1):
                most = 0
                while contains_disjoint_paths(g, most + 1, ell):
                    most += 1
                for t in range(max(most, 1), most + 2):
                    assert join_is_f_free(parts, ForbiddenPattern.paths(t, ell)) == (
                        t > most), (parts, t, ell)
                    cases += 1
    assert cases == 6825


def test_path_extremal_many_short_paths_returns_fast():
    # a general search for 13 disjoint P_3 in this join ran for minutes
    start = time.perf_counter()
    g, alpha, r = path_extremal(40, 13, 3)
    assert time.perf_counter() - start < 1.0
    assert hub_part_sizes(g) == [35, 2, 2] and (alpha, r) == (2, 0)


def test_path_extremal_validation():
    with pytest.raises(ParameterError):
        path_extremal(10, 1, 3)  # single-path pattern needs ell >= 4
    with pytest.raises(ParameterError):
        path_extremal(8, 2, 4)  # t*ell > n-1
    with pytest.raises(ParameterError):
        path_extremal(10, 0, 4)
    with pytest.raises(ParameterError, match="path union needs ell >= 2"):
        path_extremal(10, 2, 1)


def test_h_gadget():
    single = Graph(1, (0,))
    g = h_gadget(single, 0, 3, 2)
    assert g.n == 6
    assert canonical_code(g) == canonical_code(path_join([3, 2]))
    # s = 0 attaches a single path
    g = h_gadget(single, 0, 4, 0)
    assert canonical_code(g) == canonical_code(path_join([4]))
    # the seed keeps its own edges
    g = h_gadget(path(2), 1, 2, 1)
    assert g.n == 5 and g.degree(1) == 4
    with pytest.raises(ParameterError):
        h_gadget(single, 0, 0, 1)
    with pytest.raises(ParameterError):
        h_gadget(single, 2, 1, 1)
    with pytest.raises(CapacityError, match="gadget order 65 exceeds 64"):
        h_gadget(path(60), 0, 3, 2)


def test_candidates_past_64_vertices_raise_before_building(monkeypatch):
    def build(*args):
        raise AssertionError("a part was built")

    monkeypatch.setattr(constructions, "PathJoinSpec", build)
    with pytest.raises(CapacityError, match="order 1000000000 exceeds 64"):
        cycle_extremal(10**9, 4)
    with pytest.raises(CapacityError, match="order 65 exceeds 64"):
        path_extremal(65, 2, 3)
