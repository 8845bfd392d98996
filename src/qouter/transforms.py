"""Q-increasing rewrites as edge edits, and a deterministic greedy ascent.

MOVES maps each vertex move to its generator, which takes a connected
graph and its Perron vector and yields every vertex tuple at which the
move's hypotheses hold, with its rewrite as an edge edit: one dropped
edge (or none) and one added. When they hold, the rewritten graph has
strictly larger Q-index. The lemma suites of `harness` and greedy_ascent
call the generators of MOVES directly, only on connected graphs (members
of a connected level; the ascent's connected seed and accepted graphs),
passing the vector they solved; the suites certify each edit by its
exact Rayleigh quotient on that vector and build (by rewrite) and solve
only the edits it leaves open.
`tests/oracles.py` states each move's clauses at one vertex tuple, and
the tests hold every generated edit to it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import recognition
from .errors import check_max_steps
from .graphs import Graph, bits
from .spectral import q_index

PERRON_MARGIN = 1e-10


@dataclass(frozen=True)
class TransformMove:
    kind: str
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class TraceStep:
    move: TransformMove
    q: float


def rewrite(g: Graph, drop: tuple[int, int] | None, add: tuple[int, int]) -> Graph:
    """g less the edge drop (if any) plus the edge add; EdgeStateError if not."""
    return (g if drop is None else g.remove_edge(*drop)).add_edge(*add)


# -- the move table ---------------------------------------------------
#
# Generators take (g, x), x being g's Perron vector, and their callers
# call them only on connected graphs, so none tests connectivity; each
# tests every other clause of its move and yields (vertices, drop, add)
# for exactly the tuples at which the move applies, in lexicographic
# order: the move's edge edit at that tuple, drop None for AddEdge. Only
# PerronRotate reads x.


def _add_edge_candidates(g: Graph, x):
    """Non-edges u < v."""
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.has_edge(u, v):
                yield (u, v), None, (u, v)


def _perron_rotate_candidates(g: Graph, x):
    """v with the Perron clause x_u >= x_v, held by more than
    PERRON_MARGIN, then w in N(v) minus N[u] (empty for v = u)."""
    x = x.tolist()
    for u in range(g.n):
        closed_u = g.adj[u] | (1 << u)
        for v in range(g.n):
            outside = g.adj[v] & ~closed_u
            if outside and x[u] - x[v] > PERRON_MARGIN:
                for w in bits(outside):
                    yield (u, v, w), (v, w), (u, w)


def _leaf_reattach_candidates(g: Graph, x):
    """v in N(u) with d(v) <= d(u) - 2 and one or two neighbors z outside
    N[u], each with N(z) minus v inside N(v) minus N(u); then w among them."""
    for u in range(g.n):
        closed_u = g.adj[u] | (1 << u)
        for v in bits(g.adj[u]):
            outside = g.adj[v] & ~closed_u
            if g.degree(v) > g.degree(u) - 2 or outside.bit_count() not in (1, 2):
                continue
            allowed = g.adj[v] & ~g.adj[u]
            if all(g.adj[z] & ~(1 << v) & ~allowed == 0 for z in bits(outside)):
                for w in bits(outside):
                    yield (u, v, w), (v, w), (u, w)


def _pendant_pull_candidates(g: Graph, x):
    """A leaf w1 outside N[u] whose one neighbor w2 lies outside N[u],
    has every other neighbor in N(u), and has degree below d(u)."""
    full = (1 << g.n) - 1
    for u in range(g.n):
        closed_u = g.adj[u] | (1 << u)
        for w1 in bits(full & ~closed_u):
            if g.adj[w1].bit_count() != 1 or g.adj[w1] & closed_u:
                continue
            w2 = g.adj[w1].bit_length() - 1
            if (g.adj[w2] & ~(1 << w1) & ~g.adj[u] == 0
                    and g.degree(u) >= g.degree(w2) + 1):
                yield (u, w1, w2), (w1, w2), (u, w1)


def _chord_swap_candidates(g: Graph, x):
    """u of degree >= 5 whose neighborhood induces paths, and w outside
    N[u] with N(w) = {v1 < v2} an edge inside N(u) whose ends have no
    neighbor outside N[u] but w. The neighborhood test runs at most once
    per u, and only when a tuple reaches it."""
    full = (1 << g.n) - 1
    for u in range(g.n):
        if g.degree(u) < 5:
            continue
        closed_u = g.adj[u] | (1 << u)
        paths = None
        for w in bits(full & ~closed_u):
            if g.adj[w].bit_count() != 2 or g.adj[w] & ~g.adj[u]:
                continue
            v1, v2 = bits(g.adj[w])
            if not g.has_edge(v1, v2) or (g.adj[v1] | g.adj[v2]) & ~closed_u & ~(1 << w):
                continue
            if paths is None:
                paths = recognition.neighborhood_is_paths(g, u)
            if paths:
                yield (u, w, v1, v2), (v1, v2), (u, w)


# The single definition of the vertex moves, kind -> generator, in
# greedy_ascent's scan order.
MOVES = {
    "AddEdge": _add_edge_candidates,
    "PerronRotate": _perron_rotate_candidates,
    "LeafReattach": _leaf_reattach_candidates,
    "PendantPull": _pendant_pull_candidates,
    "ChordSwap": _chord_swap_candidates,
}


# -- greedy ascent ----------------------------------------------------


def _first_move(g: Graph, x, pattern: recognition.ForbiddenPattern | None):
    for kind, moves in MOVES.items():
        for vertices, drop, add in moves(g, x):
            candidate = rewrite(g, drop, add)
            if (candidate.is_connected() and recognition.is_outerplanar(candidate)
                    and (pattern is None or recognition.is_f_free(candidate, pattern))):
                return TransformMove(kind, vertices), candidate
    return None


def greedy_ascent(
    g: Graph,
    pattern: recognition.ForbiddenPattern | None,
    max_steps: int = 1000,
) -> tuple[Graph, list[TraceStep]]:
    """Apply class-preserving Q-increasing moves until a local maximum.

    The moves are those of MOVES. At each step the first applicable move
    is taken, scanning kinds in table order and each kind's vertex tuples
    in its generator's lexicographic order; a move is applicable when its
    hypotheses hold and the result stays connected, outerplanar, and
    pattern-free. The seed and each accepted graph are solved once, and the
    scan reads that vector. The moves are defined on connected graphs
    only, so a disconnected seed is returned unchanged with an empty
    trace, and is not solved. max_steps must be an int >= 0 and pattern
    a ForbiddenPattern or None, else ParameterError.
    """
    check_max_steps(max_steps)
    recognition.check_pattern(pattern)
    trace: list[TraceStep] = []
    if not g.is_connected():
        return g, trace
    current, res = g, q_index(g)
    for _ in range(max_steps):
        step = _first_move(current, res.vector, pattern)
        if step is None:
            break
        move, current = step
        res = q_index(current)
        trace.append(TraceStep(move, res.q))
    return current, trace
