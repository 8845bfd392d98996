import hashlib
import random
from itertools import combinations

from qouter.canon import _refine, _search, canonical_code, is_transposition_automorphism
from qouter.constructions import path_join
from qouter.enumeration import connected_graphs, connected_outerplanar
from qouter.graphs import Graph, complete, cycle, disjoint_union, from_edges, path, star

from .oracles import automorphism_oracle

# counts of graphs on n labeled-free vertices (all graphs, up to isomorphism)
GRAPHS_UPTO_ISO = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34}


def all_labeled_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield from_edges(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])


def test_code_classifies_all_labeled_graphs():
    for n, expected in GRAPHS_UPTO_ISO.items():
        codes = {canonical_code(g) for g in all_labeled_graphs(n)}
        assert len(codes) == expected, f"n={n}"


def test_relabeling_invariance():
    rnd = random.Random(7)
    for g in [path(7), cycle(8), star(9), disjoint_union([path(3), path(3), path(2)])]:
        code = canonical_code(g)
        for _ in range(200):
            perm = list(range(g.n))
            rnd.shuffle(perm)
            assert canonical_code(g.permuted(perm)) == code


def test_distinguishes_same_degree_sequence():
    # both 2-regular on six vertices
    assert canonical_code(cycle(6)) != canonical_code(
        disjoint_union([cycle(3), cycle(3)])
    )


def _searched(g):
    """`_search` on g's refined colours, with the orbits of the group its
    generators generate (each ascending, in order) in their place."""
    rows, labeling, generators = _search(g, _refine(g))
    orbit = [{v} for v in range(g.n)]
    for sigma in generators:
        for v, w in enumerate(sigma):
            if w not in orbit[v]:
                merged = orbit[v] | orbit[w]
                for u in merged:
                    orbit[u] = merged
    return rows, labeling, sorted({tuple(sorted(o)) for o in orbit})


def _orbits(g):
    return set(map(frozenset, _searched(g)[2]))


def _orbit_test_graphs():
    graphs = [g for n in range(1, 9) for g in connected_outerplanar(n)]
    graphs += [g for n in range(1, 7) for g in connected_graphs(n)]
    # twins at every level: stars and K_1 v kP_2
    graphs += [star(k) for k in range(2, 9)] + [path_join([2] * k) for k in range(1, 5)]
    return graphs


def test_search_orbits_match_networkx():
    for g in _orbit_test_graphs():
        assert _orbits(g) == automorphism_oracle(g)[0], g.adj
    assert _orbits(path(4)) == {frozenset({0, 3}), frozenset({1, 2})}


def test_search_generators_are_automorphisms():
    """Each generator `_search` returns is an automorphism, and together
    they generate the whole group that networkx VF2 lists."""
    for g in _orbit_test_graphs() + [cycle(6), disjoint_union([path(3), path(3), path(2)])]:
        generators = _search(g, _refine(g))[2]
        for sigma in generators:
            assert sorted(sigma) == list(range(g.n)) and g.permuted(sigma) == g, (g.adj, sigma)
        group = {tuple(range(g.n))}
        frontier = list(group)
        while frontier:
            tau = frontier.pop()
            for sigma in generators:
                product = tuple(sigma[tau[v]] for v in range(g.n))
                if product not in group:
                    group.add(product)
                    frontier.append(product)
        assert len(group) == automorphism_oracle(g)[1], g.adj


def test_search_is_pinned():
    """(rows, labeling, orbit partition) of every search on the classes
    and on twin-rich graphs, as one SHA-256. A change that re-keys the
    rows or labeling must update the value and say so; a change to how
    the search prunes or finds automorphisms keeps it."""
    graphs = [g for n in range(1, 10) for g in connected_outerplanar(n)]
    graphs += [g for n in range(1, 8) for g in connected_graphs(n)]
    graphs += [star(k) for k in range(2, 10)] + [complete(k) for k in range(1, 9)]
    graphs += [path_join([2] * k) for k in range(1, 7)] + [path_join([3] * k) for k in range(1, 5)]
    graphs.append(disjoint_union([cycle(4)] * 3))
    digest = hashlib.sha256()
    for g in graphs:
        digest.update(repr(_searched(g)).encode())
    assert digest.hexdigest() == "7d4520478201c26236934e1fa7d4be7e8596b577346efd6f33f44fe98704ea20"


def test_transposition_automorphism():
    p = path(3)
    assert is_transposition_automorphism(p, 0, 2)
    assert not is_transposition_automorphism(path(4), 0, 1)
    s = star(4)
    assert is_transposition_automorphism(s, 1, 2)
    assert not is_transposition_automorphism(s, 0, 1)
    assert is_transposition_automorphism(s, 3, 3)
    # the twin test against the definition, on every ordered pair
    for g in [g for n in range(1, 7) for g in connected_graphs(n)] + [star(6), cycle(5)]:
        for u in range(g.n):
            for v in range(g.n):
                perm = list(range(g.n))
                perm[u], perm[v] = v, u
                assert is_transposition_automorphism(g, u, v) == (g.permuted(perm) == g)


def test_single_vertex():
    g = Graph(1, (0,))
    assert canonical_code(g) == bytes([1]) + (0).to_bytes(8, "big")
