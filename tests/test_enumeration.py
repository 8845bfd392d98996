import dataclasses
import hashlib
import random
from math import factorial

import pytest

from qouter import enumeration, recognition
from qouter.canon import _refine, canonical_code, is_transposition_automorphism
from qouter.enumeration import (
    ArgmaxResult,
    EnumerationClass,
    connected_graphs,
    connected_outerplanar,
    enumerate_class,
    extremal_argmax,
)
from qouter.errors import CapacityError
from qouter.graphs import bits, from_edges, path, star
from qouter.harness import PATH_THEOREM_CELLS
from qouter.recognition import ForbiddenPattern, is_f_free, is_outerplanar
from qouter.spectral import q_index

from .oracles import (
    all_graphs_upto_iso,
    argmax_oracle,
    automorphism_oracle,
    children_oracle,
    labeled_connected,
    labeled_connected_outerplanar,
    least_of_mask_orbits,
    outer_rule_oracle,
    outerplanar_minor_oracle,
)

# https://oeis.org/A001349 (connected graphs up to isomorphism)
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
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


@pytest.mark.parametrize("generator, top, labeled", [
    (connected_outerplanar, 8, labeled_connected_outerplanar),
    (connected_graphs, 6, labeled_connected),
])
def test_classes_count_every_labeled_graph(generator, top, labeled):
    """Each member G of order n stands for n!/|Aut(G)| labeled graphs, so
    the class sums to the labeled count: a missing isomorphism class
    lowers the sum and a duplicate raises it."""
    counts = labeled(top)
    for n in range(1, top + 1):
        assert sum(factorial(n) // automorphism_oracle(g)[1] for g in generator(n)) == counts[n - 1]


def test_labeled_counts_match_the_literature():
    # https://oeis.org/A001187 (connected) and the block series at n <= 10
    assert labeled_connected(7) == [1, 1, 4, 38, 728, 26704, 1866256]
    assert labeled_connected_outerplanar(10) == [1, 1, 4, 37, 602, 14436, 458062, 18029992,
                                                 845360028, 45938606320]


@pytest.mark.parametrize("generator, connected, outerplanar, top", [
    (connected_outerplanar, True, True, 9),
    (connected_graphs, True, False, 7),
])
def test_levels_match_children_oracle(generator, connected, outerplanar, top):
    """Each level holds the very graphs, in the very order, that refining
    every child in full and testing it from scratch gives."""
    for n in range(2, top + 1):
        expected = tuple(
            child
            for parent in generator(n - 1)
            for child in children_oracle(parent, connected, outerplanar)
        )
        assert generator(n) == expected, n


@pytest.mark.parametrize("generator, connected, outerplanar, top", [
    (connected_outerplanar, True, True, 7),
    (connected_graphs, True, False, 6),  # order 7: 853 parents, 108k children
])
def test_early_exit_refinement(monkeypatch, generator, connected, outerplanar, top):
    """Each early decision against the full colours of the child, for
    every parent and mask. `_rivals` (rounds 1 and 2 from the parent)
    rejects only if an eligible vertex outranks z, and keeps every
    vertex still tied with z. `_refine` with rivals returns None iff one
    outranks z, and returns colours in which a rival shares z's colour
    only if they are the full ones. `_children` rejects a child iff an
    eligible vertex outranks z (or it is not outerplanar), and searches
    it iff an eligible vertex other than z ends with z's colour and a
    rival is not a twin of z. A child whose rivals are all twins of z is
    kept unsearched: swapping z with a twin is an automorphism."""
    searched = []
    search = enumeration._search
    monkeypatch.setattr(enumeration, "_search",
                        lambda g, color: searched.append(g) or search(g, color))
    seen = {"round 2": 0, "rivals": 0, "refine": 0, "separated": 0, "search": 0, "twins": 0}
    for n in range(1, top + 1):
        for parent in generator(n):
            nbrs = [list(bits(row)) for row in parent.adj]
            degree = [len(nv) for nv in nbrs]
            split = [parent.components(~(1 << v)) for v in range(n)]
            searched.clear()
            kept = set(enumeration._children(parent, outerplanar))
            searched_children = set(searched[1:])  # the first search is the parent's
            for mask in [m for m in range(1, 1 << n) if not outerplanar or m.bit_count() <= 2]:
                child = parent.with_new_vertex(mask)
                eligible = [
                    v for v in range(n)
                    if (not outerplanar or child.degree(v) <= 2)
                    and (not connected or child.induced(set(range(n + 1)) - {v}).is_connected())
                ]
                full = _refine(child)
                outranked = any(full[v] > full[n] for v in eligible)
                tied = sum(1 << v for v in eligible if full[v] == full[n])
                rivals = enumeration._rivals(degree, nbrs, split, mask, outerplanar)
                if rivals is None:
                    seen["round 2"] += 1
                    assert outranked, child.adj
                    continue
                assert rivals & tied == tied, child.adj
                assert all(full[v] < full[n] for v in eligible if not rivals >> v & 1), child.adj
                if rivals:
                    seen["rivals"] += 1
                    child_nbrs = [list(bits(row)) for row in child.adj]
                    early = _refine(child, n, rivals, child_nbrs)
                    assert (early is None) == outranked, child.adj
                    if early is not None and any(early[v] == early[n] for v in bits(rivals)):
                        seen["refine"] += 1
                        assert early == full and tied, child.adj
                    elif early is not None:
                        seen["separated"] += 1
                        assert not tied, child.adj
                else:
                    assert not outranked and not tied, child.adj
                if mask not in least_of_mask_orbits(parent, [mask]):
                    continue
                if outerplanar and not is_outerplanar(child):
                    assert child not in kept and child not in searched_children, child.adj
                    continue
                if outranked:
                    assert child not in kept and child not in searched_children, child.adj
                else:
                    twins = all(is_transposition_automorphism(child, v, n) for v in bits(rivals))
                    searches = bool(tied) and not twins
                    seen["search"] += searches
                    seen["twins"] += bool(rivals) and twins
                    assert (child in searched_children) == searches, child.adj
                    assert searches or child in kept, child.adj
    assert all(seen.values()), seen


@pytest.mark.parametrize("generator, outerplanar, top, refined, searched", [
    (connected_outerplanar, True, 8, 458, 231),  # 648 and 421 without the twin rule
    (connected_graphs, False, 7, 246, 173),  # 548 and 475 without it
])
def test_child_refinements_and_searches_are_pinned(monkeypatch, generator, outerplanar, top,
                                                    refined, searched):
    """The children refined and the children searched in building levels
    2..top. Early decisions change no generated row, only this work, so
    the pin shows an early decision lost, the twin rule's among them."""
    parents = [g for n in range(1, top) for g in generator(n)]
    calls = {"refine": 0, "search": 0}
    refine, search = enumeration._refine, enumeration._search

    def count(kind, call):
        def counted(g, *args):
            calls[kind] += g.n > parent.n
            return call(g, *args)
        return counted

    monkeypatch.setattr(enumeration, "_refine", count("refine", refine))
    monkeypatch.setattr(enumeration, "_search", count("search", search))
    for parent in parents:
        list(enumeration._children(parent, outerplanar))
    assert calls == {"refine": refined, "search": searched}


def _random_tree(rng, n):
    """A random recursive tree: the parent of vertex v is uniform in [0, v)."""
    return from_edges(n, [(v, rng.randrange(v)) for v in range(1, n)])


def _with_twins(rng, n):
    """A random connected graph on 5 vertices, grown to order n by adding
    twins (a copy of a random vertex's row, adjacent to it or not)."""
    g = _random_tree(rng, 5)
    for _ in range(rng.randint(0, 5)):
        u, v = rng.sample(range(5), 2)
        g = g if g.has_edge(u, v) else g.add_edge(u, v)
    while g.n < n:
        v = rng.randrange(g.n)
        g = g.with_new_vertex(g.adj[v] | rng.randint(0, 1) << v)
    return g


@pytest.mark.parametrize("outerplanar", [True, False])
def test_children_match_oracle_beyond_the_levels(outerplanar):
    """`_children` against the oracle, as an equal sequence, on seeded
    twin-rich parents above the generated levels, under random labellings:
    random recursive trees and fans of order 10..14 for the outerplanar
    class, and connected graphs of order 8 grown by twins for the other.
    Many of their children have a twin of z, the case the twin rule decides."""
    rng = random.Random(29)
    if outerplanar:
        parents = [_random_tree(rng, rng.randint(10, 14)) for _ in range(12)]
        parents += [path(k - 1).with_new_vertex((1 << k - 1) - 1) for k in range(10, 15)]
    else:
        parents = [_with_twins(rng, 8) for _ in range(6)]
    with_twin = 0
    for parent in parents:
        parent = parent.permuted(rng.sample(range(parent.n), parent.n))
        expected = tuple(children_oracle(parent, True, outerplanar))
        assert tuple(enumeration._children(parent, outerplanar)) == expected, parent.adj
        with_twin += sum(any(is_transposition_automorphism(child, v, parent.n)
                             for v in range(parent.n)) for child in expected)
    assert with_twin > len(parents), with_twin


@pytest.mark.parametrize("generator, outerplanar, top", [
    (connected_outerplanar, True, 7),
    (connected_graphs, False, 6),
])
def test_children_try_one_mask_per_orbit(monkeypatch, generator, outerplanar, top):
    """`_children` decides exactly one mask per Aut(parent) orbit, the
    least, with Aut(parent) listed by networkx VF2. The outerplanar class
    never lists a mask whose child is not outerplanar, so such orbits
    never reach `_rivals`."""
    tried = []
    rivals = enumeration._rivals
    monkeypatch.setattr(enumeration, "_rivals",
                        lambda d, nb, s, mask, o: tried.append(mask) or rivals(d, nb, s, mask, o))
    for n in range(1, top + 1):
        for parent in generator(n):
            tried.clear()
            list(enumeration._children(parent, outerplanar))
            admitted = [m for m in range(1, 1 << n) if not outerplanar or m.bit_count() == 1
                        or m.bit_count() == 2 and is_outerplanar(parent.with_new_vertex(m))]
            assert tried == least_of_mask_orbits(parent, admitted), parent.adj


def _admitted(parent):
    """The parent's rule (2) masks, from the degrees and `split` that
    `_children` passes; strictly ascending, so each mask is listed once."""
    split = [parent.components(~(1 << v)) for v in range(parent.n)]
    masks = enumeration._admissible(parent, [row.bit_count() for row in parent.adj], split)
    assert masks == sorted(set(masks)), parent.adj
    return masks


def _assert_rule_lists(parent, outerplanar_child):
    """Rule (2)'s list and the route-count oracle both equal every single
    vertex plus the pairs {u, w} whose child `outerplanar_child` accepts.
    Returns the verdicts on the pairs."""
    expected = [1 << u for u in range(parent.n)]
    verdicts = set()
    for u in range(parent.n):
        for w in range(u):
            mask = 1 << u | 1 << w
            verdict = outerplanar_child(parent.with_new_vertex(mask))
            if verdict:
                expected.append(mask)
            verdicts.add(verdict)
    expected.sort()
    assert _admitted(parent) == expected, parent.adj
    assert outer_rule_oracle(parent) == expected, parent.adj
    return verdicts


def _random_outerplanar(rng, n):
    """A random tree on n vertices, then up to 2n random edges, each kept
    only if the graph stays outerplanar, under a random labelling."""
    g = _random_tree(rng, n)
    for _ in range(rng.randint(0, 2 * n)):
        u, v = rng.sample(range(n), 2)
        if not g.has_edge(u, v):
            h = g.add_edge(u, v)
            g = h if is_outerplanar(h) else g
    return g.permuted(rng.sample(range(n), n))


def test_outer_edge_rule_matches_is_outerplanar():
    """Rule (2)'s list against `is_outerplanar` of the child, over every
    pair {u, w} of every connected outerplanar parent of order <= 8 and of
    50 seeded random ones of order 10..40; the route-count oracle agrees."""
    parents = [g for n in range(2, 9) for g in connected_outerplanar(n)]
    pairs = sum(g.n * (g.n - 1) // 2 for g in parents)
    rng = random.Random(27)
    parents += [_random_outerplanar(rng, rng.randint(10, 40)) for _ in range(50)]
    verdicts = set()
    for parent in parents:
        verdicts |= _assert_rule_lists(parent, is_outerplanar)
    assert pairs == 26225 and verdicts == {True, False}


def test_outer_edge_rule_matches_minor_oracle():
    """Rule (2)'s list against the K_4 / K_{2,3} minor oracle, over every
    pair of every connected outerplanar parent of order <= 6; the
    route-count oracle agrees."""
    verdicts = set()
    for n in range(2, 7):
        for parent in connected_outerplanar(n):
            verdicts |= _assert_rule_lists(parent, outerplanar_minor_oracle)
    assert verdicts == {True, False}


def test_rivals_match_induced_connectivity():
    """The per-parent rule (v is a non-cut vertex of the child iff z's row
    meets every component of the parent minus v) against connectivity of
    the child minus v, for every parent, mask and vertex at connected
    n <= 6; and `_rivals` against the eligible vertices it implies, keyed
    by degree and then by sorted neighbour degrees in the child."""
    for n in range(1, 7):
        for parent in connected_graphs(n):
            nbrs = [list(bits(row)) for row in parent.adj]
            degree = [len(nv) for nv in nbrs]
            split = [parent.components(~(1 << v)) for v in range(n)]
            for mask in range(1, 1 << n):
                child = parent.with_new_vertex(mask)
                non_cut = [child.induced(set(range(n + 1)) - {v}).is_connected() for v in range(n)]
                assert [all(mask & p for p in split[v]) for v in range(n)] == non_cut
                key = [(child.degree(v), sorted(child.degree(u) for u in bits(child.adj[v])))
                       for v in range(n + 1)]
                for outerplanar in (True, False):
                    eligible = [v for v in range(n) if non_cut[v]
                                and (not outerplanar or child.degree(v) <= 2)]
                    expected = (None if any(key[v] > key[n] for v in eligible)
                                else sum(1 << v for v in eligible if key[v] == key[n]))
                    assert enumeration._rivals(degree, nbrs, split, mask, outerplanar) == expected


def test_members_pairwise_nonisomorphic():
    """Generation keeps no set of codes, so this and the count gate are
    what catch a duplicate."""
    for generator, top in ((connected_outerplanar, 9), (connected_graphs, 7)):
        for n in range(1, top + 1):
            graphs = generator(n)
            assert len({canonical_code(g) for g in graphs}) == len(graphs), (generator, n)


def test_generated_rows_are_pinned():
    """The rows of every member, in generation order, as one SHA-256. A
    change that re-keys the rows (another canonical form or mask order)
    must update the value and say so; any other change keeps it."""
    digest = hashlib.sha256()
    for generator, top in ((connected_outerplanar, 9), (connected_graphs, 7)):
        for n in range(1, top + 1):
            for g in generator(n):
                digest.update(repr(g.adj).encode())
    assert digest.hexdigest() == "2607538a3cb4d33b0e26a67f7e7a25cd2278ced10b4d057b31ae19223beb3b34"


def test_enumerate_class_filters_pattern():
    pattern = ForbiddenPattern.cycle(3)
    members = list(enumerate_class(EnumerationClass(6, pattern)))
    assert all(is_f_free(g, pattern) for g in members)
    by_filter = [g for g in connected_outerplanar(6) if is_f_free(g, pattern)]
    assert len(members) == len(by_filter)


def test_connected_graphs_stop_at_order_9(monkeypatch):
    """Order 10 of the general class holds 11,716,571 graphs: it is
    refused before any graph is generated, and order 9 is the cap."""

    def refuse(*args):
        raise AssertionError("generation started")

    monkeypatch.setattr(enumeration, "_children", refuse)
    with pytest.raises(CapacityError, match="exhaustive enumeration needs 1 <= n <= 9, got 10"):
        connected_graphs(10)
    assert enumeration.CONNECTED_CAP == 9 < enumeration.EXHAUSTIVE_CAP == 10


def test_capacity_cap():
    for n in (11, 0, -1):
        for generator in (connected_outerplanar, connected_graphs):
            with pytest.raises(CapacityError):
                generator(n)
        with pytest.raises(CapacityError):
            list(enumerate_class(EnumerationClass(n)))


@pytest.mark.parametrize("generator", [connected_outerplanar, connected_graphs])
def test_orders_must_be_ints(generator):
    """5.0 and True equal the orders 5 and 1 but would key a second chain
    of cached levels: each is refused, and caches nothing."""
    generator.cache_clear()
    generator(5)
    before = generator.cache_info()
    for n in (5.0, True, 1.0, "5"):
        with pytest.raises(CapacityError, match=f"needs an int order, got {n!r}"):
            generator(n)
        with pytest.raises(CapacityError):
            list(enumerate_class(EnumerationClass(n)))
    assert generator.cache_info().currsize == before.currsize == 5


def test_connected_outerplanar_has_deletable_vertex():
    """The deletion rule behind 1-2 neighbour masks: a non-cut vertex of
    degree <= 2 exists in every connected outerplanar graph with n >= 2."""
    for n in range(2, 9):
        for g in connected_outerplanar(n):
            assert any(
                g.degree(v) <= 2 and g.induced(set(range(n)) - {v}).is_connected()
                for v in range(n)
            ), g.adj


@pytest.mark.parametrize(
    "generator", [connected_outerplanar, connected_graphs]
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
    r = ArgmaxResult((path(3),), 3.0, 0.5, (canonical_code(path(3)),))
    assert r.unique
    r = ArgmaxResult((path(3), star(3)), 3.0, 0.5,
                     (canonical_code(path(3)), canonical_code(star(3))))
    assert not r.unique


def test_argmax_carries_the_winners_codes():
    for cls in _argmax_cells():
        try:
            result = extremal_argmax(cls)
        except CapacityError:
            continue
        assert result.codes == tuple(canonical_code(g) for g in result.graphs)
        assert list(result.codes) == sorted(result.codes)


def _argmax_cells():
    """n <= 8, with no pattern, every cycle pattern, the path theorem's
    cells and P2 (empty once n >= 2)."""
    for n in range(1, 9):
        patterns = [None, ForbiddenPattern.paths(1, 2)]
        patterns += [ForbiddenPattern.cycle(ell) for ell in range(3, n + 1)]
        patterns += [ForbiddenPattern.paths(t, ell) for t, ell in PATH_THEOREM_CELLS]
        for pattern in patterns:
            yield EnumerationClass(n, pattern)


def _as_oracle(result):
    return sorted(canonical_code(g) for g in result.graphs), result.q, result.margin


@pytest.mark.parametrize("sep", [0.0, 1e-9, 0.5])
def test_argmax_matches_filter_then_max(sep):
    """The descending-q scan gives exactly what testing every member does."""
    empty = 0
    for cls in _argmax_cells():
        try:
            expected = argmax_oracle(cls, sep)
        except CapacityError:
            empty += 1
            with pytest.raises(CapacityError):
                extremal_argmax(cls, sep)
            continue
        assert _as_oracle(extremal_argmax(cls, sep)) == expected, cls
    assert empty == 7  # P2 on connected n = 2..8


def _clear_argmax_views():
    """Drop the solved per-order views and the argmaxes scanned over them."""
    enumeration._q_sorted.cache_clear()
    enumeration._scan.cache_clear()


def _count_f_free(monkeypatch):
    calls = []
    test = recognition.is_f_free
    monkeypatch.setattr(recognition, "is_f_free", lambda g, p: calls.append(g) or test(g, p))
    return calls


def test_argmax_tests_pattern_on_few_members(monkeypatch):
    calls = _count_f_free(monkeypatch)
    _clear_argmax_views()
    extremal_argmax(EnumerationClass(8, ForbiddenPattern.cycle(4)))
    assert 0 < len(calls) < len(connected_outerplanar(8))


def test_argmax_is_kept_per_pattern_and_sep(monkeypatch):
    """A repeated call returns the kept result without a scan; it is
    frozen, so a caller cannot change what the next one reads."""
    cls = EnumerationClass(7, ForbiddenPattern.cycle(4))
    first = extremal_argmax(cls)
    calls = _count_f_free(monkeypatch)
    assert extremal_argmax(cls) is first and not calls
    assert extremal_argmax(cls, 0.5) is not first
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.margin = 0.0


def test_argmax_with_an_infinite_radius(monkeypatch):
    """One low-q member without an enclosure: it cannot be excluded, so
    the scan has to reach it, and every member gets tested."""
    cls = EnumerationClass(8, ForbiddenPattern.cycle(4))
    last = min(enumerate_class(cls), key=lambda g: q_index(g).q)

    def solve(g):
        res = q_index(g)
        return dataclasses.replace(res, radius=float("inf")) if g is last else res

    monkeypatch.setattr(enumeration, "q_indices", lambda graphs: [solve(g) for g in graphs])
    calls = _count_f_free(monkeypatch)
    _clear_argmax_views()
    try:
        result = extremal_argmax(cls)
    finally:
        _clear_argmax_views()
    assert len(calls) == len(connected_outerplanar(8))
    assert canonical_code(last) in {canonical_code(g) for g in result.graphs}
    assert not result.unique
    assert _as_oracle(result) == argmax_oracle(cls, 1e-9, solve)


@pytest.mark.parametrize("seed", range(8))
def test_argmax_matches_oracle_under_any_radii(monkeypatch, seed):
    """q rounded to a multiple of 0.5, so that members tie, and random
    radii wide enough to make the stop rule and the exclusion rule
    disagree: the scan still gives the oracle's winners, q and margin."""
    rng = random.Random(seed)
    radius = {}

    def solve(g):
        if g not in radius:
            radius[g] = rng.choice((0.0, 0.1, 0.2, 0.3, 0.45))
        return dataclasses.replace(q_index(g), q=round(2 * q_index(g).q) / 2, radius=radius[g])

    monkeypatch.setattr(enumeration, "q_indices", lambda graphs: [solve(g) for g in graphs])
    for cls in (EnumerationClass(7, ForbiddenPattern.cycle(4)),
                EnumerationClass(8, ForbiddenPattern.cycle(5)),
                EnumerationClass(8, ForbiddenPattern.paths(2, 3))):
        _clear_argmax_views()
        try:
            result = extremal_argmax(cls, 1e-9)
        finally:
            _clear_argmax_views()
        assert _as_oracle(result) == argmax_oracle(cls, 1e-9, solve), cls
