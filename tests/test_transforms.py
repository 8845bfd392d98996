import ast
import hashlib
import importlib
import inspect
import pkgutil
import random
from itertools import permutations

import pytest

import qouter
from qouter import harness, spectral, transforms
from qouter.canon import canonical_code
from qouter.constructions import cycle_extremal, h_gadget
from qouter.enumeration import connected_graphs
from qouter.errors import EdgeStateError, ParameterError
from qouter.graph6 import graph6_decode
from qouter.graphs import Graph, cycle, disjoint_union, from_edges, path, star
from qouter.recognition import ForbiddenPattern, is_f_free, is_outerplanar
from qouter.spectral import q_index
from qouter.transforms import MOVES, greedy_ascent, rewrite

from .oracles import (
    PreconditionError,
    add_edge_move,
    chord_swap,
    eig_q,
    leaf_reattach,
    path_shift,
    pendant_pull,
    perron_rotate,
)
from .test_harness import MOVE_SUITES, PINNED_LEMMAS


def assert_strict_increase(before, after):
    assert eig_q(after) > eig_q(before) + 1e-9


def test_add_edge_move():
    g = path(5)
    after = add_edge_move(g, 0, 4)
    assert after.has_edge(0, 4)
    assert_strict_increase(g, after)
    with pytest.raises(EdgeStateError):
        add_edge_move(g, 0, 1)
    with pytest.raises(EdgeStateError):
        add_edge_move(g, 2, 2)
    with pytest.raises(PreconditionError):
        add_edge_move(from_edges(4, [(0, 1), (2, 3)]), 1, 3)


def test_perron_rotate_positive():
    # star with one subdivided ray: the center dominates the Perron vector
    g = from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)])
    after = perron_rotate(g, 0, 4, 5)
    assert canonical_code(after) == canonical_code(star(6))
    assert_strict_increase(g, after)


def test_perron_rotate_rejections():
    g = path(4)
    with pytest.raises(PreconditionError) as err:
        perron_rotate(g, 0, 1, 2)  # x_0 < x_1
    assert "x_u < x_v" in str(err.value)
    # x_1 == x_2 by mirror symmetry: a tie within the margin is refused
    # rather than forced
    with pytest.raises(PreconditionError) as err:
        perron_rotate(g, 1, 2, 3)
    assert "indistinguishable" in str(err.value)
    with pytest.raises(PreconditionError):
        perron_rotate(g, 1, 0, 2)  # uw already an edge
    with pytest.raises(PreconditionError):
        perron_rotate(g, 2, 0, 3)  # vw not an edge


def test_leaf_reattach():
    # hub 0 with neighbors 1,2,3,5; vertex 1 carries an outside pendant 4
    g = from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 5), (1, 4)])
    after = leaf_reattach(g, 0, 1, 4)
    assert after.has_edge(0, 4) and not after.has_edge(1, 4)
    assert_strict_increase(g, after)
    small = from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 4)])
    with pytest.raises(PreconditionError) as err:
        leaf_reattach(small, 0, 1, 4)  # degree gap too small
    assert "d(v) <= d(u) - 2" in str(err.value.clause)
    with pytest.raises(PreconditionError):
        leaf_reattach(g, 0, 2, 4)  # w not attached to v


def test_pendant_pull():
    # hub 0 adj 1,2,5; pendant 4 hangs off 3, and 3's other neighbor is 1
    g = from_edges(6, [(0, 1), (0, 2), (0, 5), (1, 3), (3, 4)])
    after = pendant_pull(g, 0, 4, 3)
    assert after.has_edge(0, 4) and not after.has_edge(3, 4)
    assert_strict_increase(g, after)
    with pytest.raises(PreconditionError):
        pendant_pull(g, 0, 3, 4)  # w1 is not a pendant of w2
    small = from_edges(5, [(0, 1), (0, 2), (1, 3), (3, 4)])
    with pytest.raises(PreconditionError) as err:
        pendant_pull(small, 0, 4, 3)
    assert "d(u) >= d(w2) + 1" in str(err.value.clause)


def test_chord_swap():
    # hub 5 over P5 (0-1-2-3-4), plus w=6 attached to the chord pair 1,2
    base = path(5).with_new_vertex(0b11111)
    g = base.with_new_vertex(0b00110)
    after = chord_swap(g, 5, 6, 1, 2)
    assert after.has_edge(5, 6) and not after.has_edge(1, 2)
    assert_strict_increase(g, after)
    with pytest.raises(PreconditionError) as err:
        chord_swap(g.remove_edge(5, 0), 5, 6, 1, 2)
    assert "d(u) >= 5" in str(err.value.clause)
    with pytest.raises(PreconditionError):
        chord_swap(g, 5, 6, 2, 3)  # N(w) != {v1, v2}


def test_path_shift():
    h = Graph(1, (0,))
    before = h_gadget(h, 0, 3, 2)
    after = path_shift(h, 0, 3, 2)
    assert canonical_code(after) == canonical_code(h_gadget(h, 0, 4, 1))
    assert_strict_increase(before, after)
    with pytest.raises(PreconditionError):
        path_shift(h, 0, 2, 3)  # t < s
    with pytest.raises(PreconditionError):
        path_shift(h, 0, 3, 0)  # nothing to shift


def test_rewrite_drops_at_most_one_edge_and_adds_one():
    g = path(4)
    assert rewrite(g, None, (0, 3)) == cycle(4)
    assert rewrite(g, (2, 3), (1, 3)) == star(4).permuted([1, 0, 2, 3])
    assert g == path(4)  # copy on write
    with pytest.raises(EdgeStateError):
        rewrite(g, (0, 2), (0, 3))  # drop is no edge
    with pytest.raises(EdgeStateError):
        rewrite(g, (2, 3), (0, 1))  # add is an edge
    with pytest.raises(EdgeStateError):
        rewrite(g, None, (2, 2))


def test_greedy_ascent_reaches_extremal():
    seed = path(6)
    pattern = ForbiddenPattern.cycle(4)
    final, trace = greedy_ascent(seed, pattern)
    assert trace, "expected at least one improving move"
    qs = [step.q for step in trace]
    assert all(b > a for a, b in zip(qs, qs[1:]))
    assert eig_q(final) > eig_q(seed)
    assert final.is_connected() and is_outerplanar(final)
    assert is_f_free(final, pattern)
    # a local maximum: re-running finds nothing
    again, more = greedy_ascent(final, pattern)
    assert not more and again == final


def test_greedy_ascent_fixed_point_on_construction():
    g, _, _ = cycle_extremal(7, 4)
    final, trace = greedy_ascent(g, ForbiddenPattern.cycle(4))
    assert not trace and final == g


def test_greedy_ascent_respects_max_steps():
    seed = path(6)
    _, trace = greedy_ascent(seed, ForbiddenPattern.cycle(4), max_steps=1)
    assert len(trace) == 1
    final, trace = greedy_ascent(seed, ForbiddenPattern.cycle(4), max_steps=0)
    assert final == seed and trace == []


def test_greedy_ascent_rejects_negative_max_steps():
    with pytest.raises(ParameterError, match="max_steps must be >= 0"):
        greedy_ascent(path(6), ForbiddenPattern.cycle(4), max_steps=-3)


@pytest.mark.parametrize("max_steps", [2.5, float("nan"), 3.0, True, "3", None])
def test_greedy_ascent_rejects_max_steps_that_is_not_an_int(max_steps):
    with pytest.raises(ParameterError, match=f"max_steps must be an int, got {max_steps!r}"):
        greedy_ascent(path(4), None, max_steps)


def test_greedy_ascent_returns_a_disconnected_seed_unsolved(monkeypatch):
    """The moves are defined on connected graphs only: a disconnected
    seed comes back as it is, with an empty trace and without a solve."""
    calls = []
    bracket = spectral._bracket
    monkeypatch.setattr(spectral, "_bracket", lambda mats: calls.append(1) or bracket(mats))
    seed = disjoint_union([path(3), star(4)])
    final, trace = greedy_ascent(seed, None)
    assert final is seed and trace == [] and not calls


# The oracles' guarded function of each move, its arity, and the
# positions of the one unordered pair in its tuple (the edge uv of
# AddEdge, the chord v1v2 of ChordSwap), which the scan lists once,
# smaller vertex first.
_SHAPES = {
    "AddEdge": (add_edge_move, 2, (0, 1)),
    "PerronRotate": (perron_rotate, 3, None),
    "LeafReattach": (leaf_reattach, 3, None),
    "PendantPull": (pendant_pull, 3, None),
    "ChordSwap": (chord_swap, 4, (2, 3)),
}


def _outcomes(g, kind):
    """Every distinct-vertex tuple of the move, in lexicographic order,
    with its guarded function's outcome: the rewritten graph, or the
    refusal's class and clause."""
    apply, arity, pair = _SHAPES[kind]
    found = []
    for vertices in permutations(range(g.n), arity):
        if pair and vertices[pair[0]] > vertices[pair[1]]:
            continue
        try:
            found.append((vertices, apply(g, *vertices)))
        except PreconditionError as exc:
            found.append((vertices, ("PreconditionError", exc.clause)))
        except EdgeStateError as exc:
            found.append((vertices, ("EdgeStateError", str(exc))))
    return found


def _assert_table_matches(g, digest):
    """Assert that on a connected g each generator of MOVES yields
    exactly the tuples that the exhaustive scan accepts, in its order,
    and through rewrite their rows, and that on a disconnected g, on
    which no generator is called, every guard refuses. Add every tuple's
    outcome to digest and return the kinds that apply somewhere."""
    kinds = set()
    x = q_index(g).vector
    for kind in MOVES:
        outcomes = _outcomes(g, kind)
        for vertices, out in outcomes:
            out = out.adj if isinstance(out, Graph) else out
            digest.update(repr((kind, g.adj, vertices, out)).encode())
        expected = [(vertices, out) for vertices, out in outcomes if isinstance(out, Graph)]
        if g.is_connected():
            assert [(vertices, rewrite(g, drop, add).adj)
                    for vertices, drop, add in MOVES[kind](g, x)] == [
                (vertices, after.adj) for vertices, after in expected], (kind, g)
        else:
            assert not expected, (kind, g)
        if expected:
            kinds.add(kind)
    return kinds


def test_move_table_matches_exhaustive_scan():
    assert list(MOVES) == list(_SHAPES)
    # ChordSwap needs d(u) >= 5 and a w outside N[u], so n >= 7: add the
    # hub over P5 with w on the chord 1-2
    chord = path(5).with_new_vertex(0b11111).with_new_vertex(0b00110)
    # graphs past the sweep's orders on which one clause alone refuses a
    # move that every other clause admits
    near_misses = [
        # LeafReattach: v = 1 has three neighbours outside N[0]
        star(7).with_new_vertex(0b10).with_new_vertex(0b10).with_new_vertex(0b10),
        # PendantPull: w2 = 5 has the neighbour 4 outside N(0)
        from_edges(7, [(0, 1), (0, 2), (0, 3), (1, 4), (4, 5), (5, 6)]),
        # ChordSwap: N(6) = {1, 2} is no edge; 1 has a neighbour outside
        # N[5] other than 6; N(5) induces a cycle
        chord.remove_edge(1, 2),
        chord.with_new_vertex(0b10),
        chord.add_edge(0, 4),
    ]
    rng = random.Random(2024)
    applied = set()
    # every tuple's outcome, rewritten rows or refusal clause, in sweep order
    digest = hashlib.sha256()
    # every move needs a connected graph: no kind yields on two components
    assert not _assert_table_matches(disjoint_union([path(3), star(4)]), digest)
    for g in [g for n in range(1, 7) for g in connected_graphs(n)] + [chord] + near_misses:
        kinds = _assert_table_matches(g, digest)
        applied |= kinds
        # the narrow moves apply on a handful of graphs, each under one
        # labeling; check those under more labelings as well, and with an
        # isolated vertex added, where none applies
        if kinds - {"AddEdge", "PerronRotate"} or g in near_misses:
            for _ in range(20):
                _assert_table_matches(g.permuted(rng.sample(range(g.n), g.n)), digest)
            assert not _assert_table_matches(disjoint_union([g, path(1)]), digest)
    # every kind applies somewhere, so the comparison is not vacuous
    assert applied == set(MOVES)
    assert digest.hexdigest() == (
        "3b20a5e153c1049650095c634898f2e038d15a9ffa22abaaeb0ec84d4160ed88")


# a 20-vertex random recursive tree and its greedy ascent under C4, as
# recorded from the exhaustive scan that the move table replaced
ASCENT_SEED = "Sq_O__ACA??G_??_?O??__????_@??A??"
ASCENT_TRACE = [
    ("AddEdge", (0, 3)),
    ("AddEdge", (0, 17)),
    ("AddEdge", (2, 4)),
    ("AddEdge", (3, 8)),
    ("AddEdge", (3, 11)),
    ("AddEdge", (3, 15)),
    ("AddEdge", (10, 19)),
    ("AddEdge", (12, 16)),
    ("AddEdge", (13, 14)),
    ("PerronRotate", (0, 6, 14)),
    ("PerronRotate", (0, 8, 18)),
    ("PerronRotate", (1, 7, 19)),
]


def _ascent_moves():
    _, trace = greedy_ascent(graph6_decode(ASCENT_SEED), ForbiddenPattern.cycle(4))
    return [(step.move.kind, step.move.vertices) for step in trace]


def test_greedy_ascent_trace_is_pinned():
    assert _ascent_moves() == ASCENT_TRACE


def test_move_generators_agree_with_the_guards_at_the_suite_ranges():
    """Every (vertices, drop, add) that MOVES yields on the
    connected graphs of each move suite's default orders rewrites g, row
    for row, to what the move's guarded function gives at those vertices;
    all 20,114 of them, as many as the suites' pinned reports count."""
    total = 0
    for name, kind, _ in MOVE_SUITES:
        apply = _SHAPES[kind][0]
        count = 0
        for n in harness._LEMMA_SUITES[name][1]:
            for g in connected_graphs(n):
                for vertices, drop, add in MOVES[kind](g, q_index(g).vector):
                    after = rewrite(g, drop, add)
                    assert apply(g, *vertices).adj == after.adj, (kind, g, vertices)
                    count += 1
        assert PINNED_LEMMAS[name][1] == [f"instances checked: {count}"], name
        total += count
    assert total == 20114


# Names that only tests/oracles.py binds: the guarded moves, their
# helpers and their refusal.
_ORACLE_ONLY = ("add_edge_move", "perron_rotate", "leaf_reattach", "pendant_pull",
                "chord_swap", "path_shift", "_require", "_connected", "_perron_failure",
                "_perron_vector", "PreconditionError")


def test_package_binds_none_of_the_guards():
    """No module of qouter defines, imports or exports a guarded move
    function, their helpers or PreconditionError: MOVES and rewrite are
    the one code path of every move. transforms does not import
    constructions."""
    modules = [importlib.import_module(f"qouter.{info.name}")
               for info in pkgutil.iter_modules(qouter.__path__)]
    assert {"qouter.errors", "qouter.transforms"} <= {mod.__name__ for mod in modules}
    for mod in [qouter] + modules:
        assert not set(_ORACLE_ONLY) & set(vars(mod)), mod.__name__
    imported = {node.module for node in ast.walk(ast.parse(inspect.getsource(transforms)))
                if isinstance(node, ast.ImportFrom)}
    assert "constructions" not in imported and "qouter.constructions" not in imported
