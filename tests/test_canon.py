import random
from itertools import combinations

from qouter.canon import canonical_code, is_transposition_automorphism
from qouter.graphs import Graph, cycle, disjoint_union, from_edges, path, star

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


def test_marked_codes_separate_orbits():
    s = star(5)
    center = canonical_code(s, mark=0)
    leaves = {canonical_code(s, mark=v) for v in range(1, 5)}
    assert len(leaves) == 1
    assert center not in leaves

    p = path(4)
    assert canonical_code(p, mark=0) == canonical_code(p, mark=3)  # endpoints
    assert canonical_code(p, mark=1) == canonical_code(p, mark=2)  # inner
    assert canonical_code(p, mark=0) != canonical_code(p, mark=1)


def test_transposition_automorphism():
    p = path(3)
    assert is_transposition_automorphism(p, 0, 2)
    assert not is_transposition_automorphism(path(4), 0, 1)
    s = star(4)
    assert is_transposition_automorphism(s, 1, 2)
    assert not is_transposition_automorphism(s, 0, 1)
    assert is_transposition_automorphism(s, 3, 3)


def test_single_vertex():
    g = Graph(1, (0,))
    assert canonical_code(g) == bytes([1]) + (0).to_bytes(8, "big")
