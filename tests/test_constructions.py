import pytest

from qouter.canon import canonical_code
from qouter.constructions import (
    PathJoinSpec,
    cycle_extremal,
    h_gadget,
    path_extremal,
    path_join,
)
from qouter.errors import CapacityError, ParameterError
from qouter.graphs import Graph, path, star
from qouter.recognition import ForbiddenPattern, is_f_free, is_outerplanar

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
    g, alpha, r, flag = path_extremal(12, 1, 4)
    assert (alpha, r) == (10, 0)
    assert not flag
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


def test_path_extremal_printed_formula_agrees():
    g, alpha, r, flag = path_extremal(16, 1, 6)
    assert (alpha, r) == (6, 1)
    assert not flag
    assert hub_part_sizes(g) == [2] * 7 + [1]


def test_path_extremal_printed_formula_discrepancy():
    g, alpha, r, flag = path_extremal(20, 2, 3)
    assert (alpha, r) == (8, 1)
    assert flag  # printed closed form misses the part-sum identity here
    assert hub_part_sizes(g) == [2] * 9 + [1]


def test_path_extremal_part_sum_identity():
    for t, ell in [(1, 4), (1, 5), (1, 6), (2, 2), (2, 3), (3, 2)]:
        for n in range(t * ell + 1, t * ell + 12):
            g, alpha, r, _ = path_extremal(n, t, ell)
            assert g.n == n
            assert g.is_connected() and is_outerplanar(g)
            assert is_f_free(g, ForbiddenPattern.paths(t, ell))
            if n <= 8:
                assert not path_pack_oracle(g, t, ell)


def test_path_extremal_validation():
    with pytest.raises(ParameterError):
        path_extremal(10, 1, 3)  # single-path pattern needs ell >= 4
    with pytest.raises(ParameterError):
        path_extremal(8, 2, 4)  # t*ell > n-1
    with pytest.raises(ParameterError):
        path_extremal(10, 0, 4)


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
