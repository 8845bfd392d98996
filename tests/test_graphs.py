from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qouter.enumeration import connected_graphs
from qouter.errors import CapacityError, EdgeStateError
from qouter.graphs import (
    Graph,
    bits,
    complete,
    cycle,
    disjoint_union,
    from_edges,
    join_one,
    path,
    star,
)


def degrees(g):
    return sorted((g.degree(v) for v in range(g.n)), reverse=True)


def random_graph(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return from_edges(n, chosen)


graphs_strategy = st.composite(random_graph)()


def test_bits_iterates_positions():
    assert list(bits(0b101001)) == [0, 3, 5]
    assert list(bits(0)) == []


def test_validation_rejects_bad_rows():
    with pytest.raises(ValueError):
        Graph(2, (0b10,))  # wrong length
    with pytest.raises(ValueError):
        Graph(2, (0b01, 0b00))  # self-loop at 0
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))  # asymmetric edge
    with pytest.raises(ValueError):
        Graph(2, (0b100, 0b000))  # out-of-range vertex
    for rows in ((2.0, 1), (True, False), (0b10, True)):  # a bool row is no 0 or 1
        with pytest.raises(ValueError, match=r"row \d is .*, not an int"):
            Graph(2, rows)
    for adj in ([0b10, 0b01], range(2)):  # a list would make the graph unhashable
        with pytest.raises(ValueError, match="adj must be a tuple of rows"):
            Graph(2, adj)
    with pytest.raises(CapacityError):
        Graph(0, ())
    with pytest.raises(CapacityError):
        Graph(65, (0,) * 65)


def test_from_edges_rejects_endpoints_and_orders_out_of_range():
    """An endpoint outside 0..n-1 names its edge; an order outside 1..64 is
    refused before any edge is read."""
    for edge in ((0, 5), (0, -1), (3, 1), (True, 2), (0, 2.0)):
        with pytest.raises(ValueError, match=rf"edge \({edge[0]}, {edge[1]}\)"):
            from_edges(3, [(0, 1), edge])

    def unread():
        raise AssertionError("edges read")
        yield

    for n in (0, -1, 65, 3.0, True):
        with pytest.raises(CapacityError, match=f"order {n} outside 1..64"):
            from_edges(n, unread())
    with pytest.raises(ValueError, match="self-loop"):
        from_edges(3, [(1, 1)])
    assert from_edges(1, []).adj == (0,)


def test_standard_builders():
    p = path(5)
    assert p.m == 4 and degrees(p) == [2, 2, 2, 1, 1]
    c = cycle(5)
    assert c.m == 5 and degrees(c) == [2] * 5
    s = star(5)
    assert s.degree(0) == 4 and degrees(s) == [4, 1, 1, 1, 1]
    k = complete(5)
    assert k.m == 10 and k.max_degree() == 4
    assert Graph(3, (0,) * 3).m == 0
    assert path(1).n == 1 and path(1).m == 0
    with pytest.raises(CapacityError):
        cycle(2)


def test_path_builds_the_same_rows_as_from_edges():
    for k in range(1, 65):
        assert path(k) == from_edges(k, [(i, i + 1) for i in range(k - 1)])
    for k in (-1, 0, 65):
        with pytest.raises(CapacityError):
            path(k)


def test_add_remove_edge():
    g = path(3)
    with pytest.raises(EdgeStateError):
        g.add_edge(0, 1)
    with pytest.raises(EdgeStateError):
        g.add_edge(2, 2)
    with pytest.raises(EdgeStateError):
        g.remove_edge(0, 2)
    g2 = g.add_edge(0, 2)
    assert g2.m == 3 and g2.has_edge(0, 2) and not g.has_edge(0, 2)
    assert g2.remove_edge(0, 2) == g


def test_edges_roundtrip():
    g = cycle(6).add_edge(0, 3)
    assert from_edges(6, g.edges()) == g


def test_induced_and_delete():
    g = cycle(5)
    sub = g.induced([0, 1, 2])
    assert sub.n == 3 and sub.m == 2  # path 0-1-2
    assert g.induced(range(4)).m == 3  # vertex 4 deleted
    assert star(5).induced(range(1, 5)).m == 0  # the centre deleted


def test_with_new_vertex_and_join():
    g = path(3).with_new_vertex(0b101)
    assert g.n == 4 and g.has_edge(3, 0) and g.has_edge(3, 2) and not g.has_edge(3, 1)
    j = join_one(path(3))
    assert j.degree(3) == 3 and j.m == 5


def test_connectivity_and_components():
    assert path(6).is_connected()
    g = disjoint_union([path(2), cycle(3)])
    assert not g.is_connected()
    comps = g.components()
    assert comps == [0b00011, 0b11100]
    assert g.has_edge(2, 3) and not g.has_edge(1, 2)


@settings(max_examples=80, deadline=None)
@given(graphs_strategy, st.data())
def test_reachable_mask_matches_networkx(g, data):
    """The walk restricted to a vertex mask (the empty one, every vertex,
    and a drawn one) against the components of networkx's induced
    subgraph; without a mask it walks every vertex."""
    import networkx as nx

    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from(g.edges())
    full = (1 << g.n) - 1
    for within in (0, full, data.draw(st.integers(0, full), label="within")):
        sub = ref.subgraph(bits(within))
        for v in bits(within):
            assert g.reachable_mask(v, within) == sum(1 << u for u in nx.node_connected_component(sub, v))
        assert g.components(within) == sorted(
            (sum(1 << u for u in comp) for comp in nx.connected_components(sub)),
            key=lambda mask: mask & -mask)
    assert [g.reachable_mask(v) for v in range(g.n)] == [g.reachable_mask(v, full) for v in range(g.n)]
    assert g.components() == g.components(full)
    assert g.is_connected() == nx.is_connected(ref)


def test_connectivity_leaves_no_state_on_the_graph():
    """is_connected stores nothing: a graph holds its two fields only."""
    for g in (path(4), disjoint_union([path(2), cycle(3)])):
        g.is_connected()
        assert vars(g) == {"n": g.n, "adj": g.adj}


def test_disjoint_union_empty_raises():
    with pytest.raises(CapacityError):
        disjoint_union([])


def test_builders_refuse_orders_past_64():
    """An order must be an int: a float equal to one and a bool are refused."""
    for build in (path, cycle, star, complete):
        for k in (65, 4.0, True):
            with pytest.raises(CapacityError, match=str(k)):
                build(k)
    for n, adj in ((2.0, (2, 1)), (True, (0,))):
        with pytest.raises(CapacityError, match=str(n)):
            Graph(n, adj)
    with pytest.raises(CapacityError, match="union order 65 exceeds 64"):
        disjoint_union([path(60), cycle(5)])
    with pytest.raises(CapacityError, match="order would exceed 64"):
        path(64).with_new_vertex(1)


@settings(max_examples=60, deadline=None)
@given(graphs_strategy, st.randoms(use_true_random=False))
def test_permuted_preserves_invariants(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    h = g.permuted(perm)
    assert h.m == g.m
    assert degrees(h) == degrees(g)
    assert h.is_connected() == g.is_connected()
    # permuting back restores the original
    inv = [0] * g.n
    for v, p in enumerate(perm):
        inv[p] = v
    assert h.permuted(inv) == g


def _mutations(g):
    for u, v in combinations(range(g.n), 2):
        yield g.remove_edge(u, v) if g.has_edge(u, v) else g.add_edge(u, v)
    for mask in range(1 << g.n):
        yield g.with_new_vertex(mask)
        if mask:
            yield g.induced(bits(mask))
    yield g.permuted(range(g.n - 1, -1, -1))
    yield g.permuted([*range(1, g.n), 0])
    yield disjoint_union([g, g, path(2)])
    yield join_one(g)


def test_mutators_build_valid_graphs():
    """The mutators skip re-validation; what they build must pass it."""
    checked = 0
    for n in range(1, 7):
        for g in connected_graphs(n):
            for out in _mutations(g):
                assert Graph(out.n, out.adj) == out
                checked += 1
    assert checked > 10_000


def test_mutators_reject_arguments_that_break_the_invariants():
    g = path(4)
    for mask in (1 << 4, 0b11 << 3, -1, 1.0, True):
        with pytest.raises(ValueError):
            g.with_new_vertex(mask)
    for perm in ([0, 1, 2], [0, 1, 2, 2], [0, 1, 2, 4], [1, 2, 3, 4], [0, 1, 2, 3, 4],
                 [0.0, 1, 2, 3], [True, False, 2, 3]):
        with pytest.raises(ValueError):
            g.permuted(perm)
    for vertices in ([], [-1, 1], [2, 4], [0.0, 1], [0, 0.0, 1], [True, 2]):
        with pytest.raises(ValueError):
            g.induced(vertices)
    for edit in (g.add_edge, g.remove_edge):
        for u, v in ((0, 4), (4, 0), (0, -1), (-1, 2), (5, 5), (0, 2.0), (True, 2), (1.0, 0)):
            with pytest.raises(ValueError, match=rf"edge \({u}, {v}\) has an endpoint outside"):
                edit(u, v)
    with pytest.raises(CapacityError):
        path(1).induced([])  # its only vertex deleted
