import math
import random
import warnings
from fractions import Fraction
from itertools import groupby, product

import numpy as np
import pytest

from qouter import harness, spectral
from qouter.constructions import PathJoinSpec, path_join
from qouter.enumeration import (
    EnumerationClass,
    connected_graphs,
    connected_outerplanar,
    extremal_argmax,
)
from qouter.errors import EtaUndefinedError, ParameterError
from qouter.graphs import complete, cycle, disjoint_union, from_edges, path, star
from qouter.recognition import ForbiddenPattern
from qouter.spectral import (
    Ordering,
    compare_results,
    eta_max,
    path_join_ratios,
    q_index,
    q_indices,
)

from .oracles import (
    all_graphs_upto_iso,
    eig_q,
    eta_exact,
    perron_oracle,
    q_matrix,
    q_root_bisection,
)


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
    assert np.all(res.vector > 0)
    assert np.linalg.norm(res.vector) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(q_matrix(g) @ res.vector - res.q * res.vector) <= 1e-12
    assert res.radius <= 1e-12


def test_disconnected_takes_max_component():
    g = disjoint_union([path(2), star(6)])
    res = q_index(g)
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
    assert compare_results(q_index(g), q_index(star(41))) is Ordering.INDISTINGUISHABLE


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
    assert compare_results(q_index(complete(4)), q_index(path(4)), sep=0) is Ordering.GREATER
    assert compare_results(q_index(g), q_index(h), sep=0) is Ordering.INDISTINGUISHABLE
    result = extremal_argmax(EnumerationClass(5, ForbiddenPattern.cycle(4)), sep=0)
    assert result.unique and result.margin > 0
    for bad in (-1e-12, float("nan")):
        for compare in (lambda: compare_results(q_index(g), q_index(h), sep=bad),
                        lambda: extremal_argmax(EnumerationClass(5), sep=bad)):
            with pytest.raises(ParameterError, match="sep must be nonnegative"):
                compare()


def test_eta():
    s = star(6)
    assert eta_exact(s, 0) == 6
    assert eta_exact(s, 1) == 6
    assert eta_exact(path(3), 1) == 3
    assert eta_exact(path(4), 1) == Fraction(7, 2)
    assert eta_max(path(2)) == pytest.approx(2.0)
    with pytest.raises(EtaUndefinedError):
        eta_exact(disjoint_union([path(1), path(2)]), 0)


def test_eta_max_is_the_rounded_exact_max():
    """eta_max rounds the exact maximum, bit for bit, and still refuses
    an isolated vertex."""
    for n in range(2, 7):
        for g in connected_graphs(n):
            assert eta_max(g) == float(max(eta_exact(g, u) for u in range(g.n))), g.adj
    for g in (path(1), disjoint_union([path(2), path(1)])):
        with pytest.raises(EtaUndefinedError, match=f"vertex {g.n - 1} is isolated"):
            eta_max(g)


def test_eta_upper_bounds_q():
    for n in range(2, 7):
        for g in all_graphs_upto_iso(n):
            if g.is_connected():
                assert q_index(g).q <= eta_max(g) + 1e-9


def test_q_compare():
    assert compare_results(q_index(complete(4)), q_index(path(4))) is Ordering.GREATER
    assert compare_results(q_index(path(4)), q_index(complete(4))) is Ordering.LESS
    g = cycle(6)
    h = g.permuted([1, 2, 3, 4, 5, 0])
    assert compare_results(q_index(g), q_index(h)) is Ordering.INDISTINGUISHABLE
    with pytest.raises(ValueError):
        compare_results(q_index(g), q_index(h), sep=-1.0)
    # a number b is an exact bound, of radius 0: q(K_{1,4}) = 5 is tied
    # with 5 even at sep = 0, and an infinite radius separates nothing
    assert compare_results(q_index(star(5)), 5, sep=0.0) is Ordering.INDISTINGUISHABLE
    p4 = q_index(path(4))  # q = 2 + sqrt(2)
    assert compare_results(p4, 4) is Ordering.LESS
    assert compare_results(p4, 3) is Ordering.GREATER
    assert compare_results(p4, 3.5, sep=0.0) is Ordering.LESS
    unbounded = spectral.SpectralResult(p4.q, p4.vector, math.inf)
    for bound in (0, 3.5, 1e300, math.inf):
        assert compare_results(unbounded, bound, sep=0.0) is Ordering.INDISTINGUISHABLE


def test_q_monotone_under_edge_addition():
    g = path(5)
    assert compare_results(q_index(g.add_edge(0, 4)), q_index(g)) is Ordering.GREATER


# -- the path-join solver ---------------------------------------------


def _join_gate_specs():
    """Each distinct claim41 join, five seeded random partitions per order
    13..64, and the star, the fan and the all-P_2 join of each order 5..64."""
    rng = random.Random(11)
    specs = list(harness.claim41_specs(range(6, 41)))
    specs += [PathJoinSpec(tuple(harness._random_partition(rng, n - 1)))
              for n in range(13, 65) for _ in range(5)]
    for n in range(5, 65):
        specs += [PathJoinSpec((1,) * (n - 1)), PathJoinSpec((n - 1,)),
                  PathJoinSpec((2,) * ((n - 1) // 2) + (1,) * ((n - 1) % 2))]
    return sorted(set(specs), key=lambda spec: spec.order)


def test_path_join_ratios_match_the_dense_solve():
    """Per order, q within 1e-12 q of eigh's, each ratio x_v/x_hub within
    1e-12 of the dense vector's, and a radius at most 1e-11 that encloses
    the dense q. A group's rows are bit for bit the joins solved alone."""
    orders = set()
    for n, group in groupby(_join_gate_specs(), key=lambda spec: spec.order):
        parts = [spec.parts for spec in group]
        orders.add(n)
        qs, ys, radii = path_join_ratios(parts)
        assert ys.shape == (len(parts), n - 1)
        graphs = [path_join(p) for p in parts]
        for i, (g, res) in enumerate(zip(graphs, q_indices(graphs))):
            for ref in (res, perron_oracle(g)):
                assert abs(qs[i] - ref.q) <= 1e-12 * ref.q, parts[i]
                assert np.abs(ys[i] - ref.vector[:-1] / ref.vector[-1]).max() <= 1e-12, parts[i]
            assert radii[i] <= 1e-11 and abs(qs[i] - res.q) <= radii[i] + res.radius, parts[i]
        if n in (6, 13, 40, 64):
            for i, p in enumerate(parts):
                q, y, radius = path_join_ratios([p])
                assert (q[0], radius[0]) == (qs[i], radii[i]) and np.array_equal(y[0], ys[i])
    assert orders == set(range(5, 65))
    star_q, _, star_radius = path_join_ratios([(1,) * 63])
    assert star_q[0] == 64.0 and star_radius[0] <= 1e-11


def test_path_join_ratios_solve_mixed_orders_as_each_order_alone():
    """All gate joins, orders 5..64, in one call: each join's q, radius and
    first n - 1 ratios are bit for bit its order's group solved alone, its
    row is exactly 0 past them, and no division by the padding warns."""
    specs = _join_gate_specs()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        qs, ys, radii = path_join_ratios([spec.parts for spec in specs])
    assert ys.shape == (len(specs), 63)
    i = 0
    for n, group in groupby(specs, key=lambda spec: spec.order):
        q, y, radius = path_join_ratios([spec.parts for spec in group])
        rows = slice(i, i + len(q))
        assert np.array_equal(qs[rows], q) and np.array_equal(radii[rows], radius), n
        assert np.array_equal(ys[rows, :n - 1], y) and not ys[rows, n - 1:].any(), n
        i += len(q)
    assert i == len(specs)


@pytest.mark.parametrize("parts", [[], [()], [(1, 1, 1)], [(3,)], [(2, 1)],
                                   [(2, 2), (3,)], [(4, 0)], [(5, -1)], [(4,), (2, 1)]])
def test_path_join_ratios_reject_orders_below_five(parts):
    with pytest.raises(ParameterError):
        path_join_ratios(parts)


def test_path_join_ratios_take_orders_five_and_up_together():
    """The fan K_1 v P_4 and K_1 v P_5, orders 5 and 6, in one call."""
    q, y, radii = path_join_ratios([(4,), (5,)])
    assert y.shape == (2, 5) and y[0, 4] == 0.0 and (radii <= 1e-11).all()


# -- the batch solver -------------------------------------------------


def _pendant_path_star():
    """K_{1,20} with a 20-vertex pendant path: no positive computed vector."""
    edges = [(0, i) for i in range(1, 21)] + [(i, i + 1) for i in range(20, 40)]
    return from_edges(41, edges)


def _assert_bitwise(results, graphs):
    assert len(results) == len(graphs)
    for res, g in zip(results, graphs):
        ref = perron_oracle(g)
        assert res.q.hex() == ref.q.hex(), g
        assert res.vector.tobytes() == ref.vector.tobytes(), g
        assert res.radius.hex() == ref.radius.hex(), g


def test_q_indices_matches_oracle_in_one_mixed_call():
    graphs = [g for n in range(1, 8) for g in connected_graphs(n)]
    # disconnected graphs, among them equal components in both orders
    parts = [g for n in range(1, 6) for g in connected_outerplanar(n)]
    graphs += [disjoint_union(pair) for pair in product(parts, repeat=2)
               if sum(g.n for g in pair) <= 6]
    graphs += [disjoint_union([g] * 3) for g in parts if g.n <= 2]
    graphs += graphs[::50]  # duplicates, within the call and of connected ones
    # order 7 alone fills more than one stack
    assert len(connected_graphs(7)) > spectral._STACK_ENTRIES // 7**2
    results = q_indices(graphs)
    _assert_bitwise(results, graphs)
    first = {}
    for g, res in zip(graphs, results):
        assert first.setdefault(g, res) is res


def test_q_indices_stacks_of_64_vertices():
    """star(64) needs bit 63 of its centre's row; eight 64-vertex matrices
    fill a stack, so twenty relabellings span three stacks."""
    rnd = random.Random(5)
    graphs = [star(64), path(64), cycle(64)]
    for _ in range(17):
        perm = list(range(64))
        rnd.shuffle(perm)
        graphs.append(star(64).permuted(perm))
    assert len(graphs) > spectral._STACK_ENTRIES // 64**2
    _assert_bitwise(q_indices(graphs), graphs)
    assert q_index(star(64)).q == pytest.approx(64.0, abs=1e-9)


@pytest.mark.parametrize(
    "graph",
    [
        disjoint_union([cycle(5), star(4)]),
        # q(C6) and q(K_{1,3}) both compute to exactly 4.0: a tie between
        # components of different orders
        disjoint_union([cycle(6), star(4)]),
        disjoint_union([star(4), cycle(6)]),
        path(1),
        disjoint_union([path(1), path(1)]),
        star(64),
        _pendant_path_star(),
    ],
    ids=["C5+K13", "C6+K13", "K13+C6", "n1", "2K1", "star64", "pendant-path"],
)
def test_q_indices_matches_oracle_alone_and_in_any_group_order(graph):
    """Alone, and after graphs whose components come in other orders, so
    that the groups are solved in another order."""
    others = [path(k) for k in sorted({mask.bit_count() for mask in graph.components()})]
    for batch in ([graph], others + [graph], others[::-1] + [graph]):
        _assert_bitwise(q_indices(batch), batch)


def test_q_indices_tie_keeps_the_first_component():
    assert q_index(cycle(6)).q == q_index(star(4)).q
    res = q_indices([path(4), disjoint_union([star(4), cycle(6)]),
                     disjoint_union([cycle(6), star(4)])])
    assert np.all(res[1].vector[:4] > 0) and not res[1].vector[4:].any()
    assert np.all(res[2].vector[:6] > 0) and not res[2].vector[6:].any()


def test_q_indices_empty_cached_and_read_only():
    """Nothing is kept between calls; within one call, equal graphs (and a
    graph equal to another's component) share one result, read-only."""
    assert q_indices([]) == []
    graphs = [path(3), cycle(5), disjoint_union([path(2), star(4)])]
    first = q_indices(iter(graphs + graphs + [star(4)]))
    assert all(a is b for a, b in zip(first[:3], first[3:6]))
    # star(4) is the extremal component of the third graph
    assert first[6].q == first[2].q
    assert first[6].vector.tobytes() == first[2].vector[2:].tobytes()
    _assert_bitwise(first, graphs + graphs + [star(4)])
    assert all(a is not b for a, b in zip(q_indices(graphs), first))
    for res in first:
        assert not res.vector.flags.writeable
        with pytest.raises(ValueError):
            res.vector[0] = 1.0


def test_unbracketed_vector_leaves_its_stack_neighbours_alone():
    """The pendant-path star has no positive computed vector (radius inf);
    solved in one stack with other 41-vertex graphs, every member still
    matches its own solve bit for bit."""
    rnd = random.Random(7)
    graphs = [path(41), star(41), cycle(41), _pendant_path_star()]
    for _ in range(6):
        perm = list(range(41))
        rnd.shuffle(perm)
        graphs.insert(2, star(41).permuted(perm))
        graphs.append(_pendant_path_star().permuted(perm))
    assert len(graphs) <= spectral._STACK_ENTRIES // 41**2  # one stack
    results = q_indices(graphs)
    _assert_bitwise(results, graphs)
    radii = [res.radius for res in results]
    assert math.inf in radii and any(r < 1e-9 for r in radii)


def test_components_are_solved_as_graphs_of_their_own():
    g = disjoint_union([path(3), cycle(5)])
    res = q_index(g)
    _assert_bitwise([res], [g])
    _assert_bitwise([q_index(path(3)), q_index(cycle(5))], [path(3), cycle(5)])
