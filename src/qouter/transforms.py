"""Guarded Q-increasing rewrites and a deterministic greedy ascent.

Each move function checks its structural hypotheses at one vertex tuple
exactly as stated and raises PreconditionError (naming the first failed
clause) otherwise, except that add_edge_move raises EdgeStateError for a
loop or an existing edge. When they hold, the rewritten graph has strictly
larger Q-index. The lemma suites of `harness` and greedy_ascent apply the
moves only through the generators of MOVES, which yield each rewrite as
an edge edit, one dropped edge (or none) and one added; the suites
certify each by its exact Rayleigh quotient on the original's Perron
vector and build (by rewrite) and solve only the edits it leaves open.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import recognition
from .errors import EdgeStateError, PreconditionError, check_max_steps
from .graphs import Graph, bits
from .spectral import q_index
from .constructions import h_gadget

PERRON_MARGIN = 1e-10


@dataclass(frozen=True)
class TransformMove:
    kind: str
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class TraceStep:
    move: TransformMove
    q: float


def _require(cond: bool, clause: str) -> None:
    if not cond:
        raise PreconditionError(clause)


def rewrite(g: Graph, drop: tuple[int, int] | None, add: tuple[int, int]) -> Graph:
    """g less the edge drop (if any) plus the edge add; EdgeStateError if not."""
    return (g if drop is None else g.remove_edge(*drop)).add_edge(*add)


def add_edge_move(g: Graph, u: int, v: int) -> Graph:
    _require(g.is_connected(), "graph must be connected")
    if u == v or g.has_edge(u, v):
        raise EdgeStateError(f"cannot add edge {u}-{v}")
    return rewrite(g, None, (u, v))


def perron_rotate(g: Graph, u: int, v: int, w: int) -> Graph:
    """Rewire vw to uw when the Perron vector satisfies x_u >= x_v.

    The vector hypothesis is accepted only with a numerical margin;
    borderline cases are rejected.
    """
    _require(g.is_connected(), "graph must be connected")
    _require(len({u, v, w}) == 3, "u, v, w must be distinct")
    _require(not g.has_edge(u, w), "uw must not be an edge")
    _require(g.has_edge(v, w), "vw must be an edge")
    failed = _perron_failure(q_index(g).vector, u, v)
    if failed is not None:
        raise PreconditionError(failed)
    return rewrite(g, (v, w), (u, w))


def _perron_failure(x, u: int, v: int) -> str | None:
    """The failed clause x_u >= x_v of perron_rotate for a Perron vector x,
    or None when it holds by more than PERRON_MARGIN."""
    diff = float(x[u] - x[v])
    if diff > PERRON_MARGIN:
        return None
    if diff < -PERRON_MARGIN:
        return "perron entries satisfy x_u < x_v"
    return "x_u vs x_v margin indistinguishable"


def leaf_reattach(g: Graph, u: int, v: int, w: int) -> Graph:
    """Move the outside-neighbor edge vw to uw when v is a low-degree
    neighbor of u whose outside neighborhood is pendant-like."""
    _require(g.is_connected(), "graph must be connected")
    _require(g.has_edge(u, v), "v must be a neighbor of u")
    _require(g.degree(v) <= g.degree(u) - 2, "d(v) <= d(u) - 2")
    closed_u = g.adj[u] | (1 << u)
    outside = g.adj[v] & ~closed_u
    _require((outside >> w) & 1, "w must lie in N(v) minus N[u]")
    _require(outside.bit_count() in (1, 2), "|N(v) \\ N[u]| must be 1 or 2")
    allowed = g.adj[v] & ~g.adj[u]
    for z in bits(outside):
        _require(
            (g.adj[z] & ~(1 << v)) & ~allowed == 0,
            "every z in N(v) \\ N[u] must satisfy N(z)\\{v} within N(v)\\N(u)",
        )
    return rewrite(g, (v, w), (u, w))


def pendant_pull(g: Graph, u: int, w1: int, w2: int) -> Graph:
    """Reattach a pendant w1 hanging off w2 directly to the hub u."""
    _require(g.is_connected(), "graph must be connected")
    closed_u = g.adj[u] | (1 << u)
    _require(not (closed_u >> w1) & 1, "w1 must avoid N[u]")
    _require(not (closed_u >> w2) & 1, "w2 must avoid N[u]")
    _require(g.adj[w1] == (1 << w2), "N(w1) must equal {w2}")
    _require(
        g.adj[w2] & ~(1 << w1) & ~g.adj[u] == 0,
        "N(w2)\\{w1} must lie inside N(u)",
    )
    _require(g.degree(u) >= g.degree(w2) + 1, "d(u) >= d(w2) + 1")
    return rewrite(g, (w1, w2), (u, w1))


def chord_swap(g: Graph, u: int, w: int, v1: int, v2: int) -> Graph:
    """Trade the chord v1v2 inside N(u) for the edge uw."""
    _require(g.is_connected(), "graph must be connected")
    _require(recognition.neighborhood_is_paths(g, u), "G[N(u)] must consist of paths")
    _require(g.degree(u) >= 5, "d(u) >= 5")
    closed_u = g.adj[u] | (1 << u)
    _require(not (closed_u >> w) & 1, "w must avoid N[u]")
    _require(g.adj[w] == (1 << v1) | (1 << v2), "N(w) must equal {v1, v2}")
    _require((g.adj[u] >> v1) & 1 and (g.adj[u] >> v2) & 1, "v1, v2 must be neighbors of u")
    _require(g.has_edge(v1, v2), "v1v2 must be an edge")
    for vi in (v1, v2):
        _require(
            g.adj[vi] & ~closed_u & ~(1 << w) == 0,
            "N(v_i) outside N[u] and {w} must be empty",
        )
    return rewrite(g, (v1, v2), (u, w))


def path_shift(h: Graph, u: int, t: int, s: int) -> Graph:
    """Shift one vertex of the shorter attached path onto the longer one:
    the gadget on (t, s) becomes the gadget on (t+1, s-1)."""
    _require(t >= s >= 1, "need t >= s >= 1")
    return h_gadget(h, u, t + 1, s - 1)


# -- the move table ---------------------------------------------------
#
# Generators are called only on connected graphs (move_results yields
# nothing on a disconnected one); each tests every other clause of its
# move and yields (vertices, drop, add) for exactly the tuples at which
# the move applies, in lexicographic order: the edge edit that the move's
# guarded function above applies through rewrite, drop None for AddEdge.


def _add_edge_candidates(g: Graph):
    """Non-edges u < v."""
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.has_edge(u, v):
                yield (u, v), None, (u, v)


def _perron_rotate_candidates(g: Graph):
    """v with the Perron clause x_u >= x_v, then w in N(v) minus N[u]
    (empty for v = u). The Perron vector is read once per graph."""
    x = q_index(g).vector.tolist()
    for u in range(g.n):
        closed_u = g.adj[u] | (1 << u)
        for v in range(g.n):
            outside = g.adj[v] & ~closed_u
            if outside and _perron_failure(x, u, v) is None:
                for w in bits(outside):
                    yield (u, v, w), (v, w), (u, w)


def _leaf_reattach_candidates(g: Graph):
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


def _pendant_pull_candidates(g: Graph):
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


def _chord_swap_candidates(g: Graph):
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


def move_results(g: Graph, kind: str):
    """Yield (vertices, drop, add) for every vertex tuple at which the
    move `kind` of MOVES applies to g, in lexicographic order: its
    generator's edge edits, none on a disconnected g; rewrite builds their graphs."""
    if g.is_connected():
        yield from MOVES[kind](g)


# -- greedy ascent ----------------------------------------------------


def _first_move(g: Graph, pattern: recognition.ForbiddenPattern | None):
    for kind in MOVES:
        for vertices, drop, add in move_results(g, kind):
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
    pattern-free. A negative max_steps raises ParameterError.
    """
    check_max_steps(max_steps)
    trace: list[TraceStep] = []
    current = g
    for _ in range(max_steps):
        step = _first_move(current, pattern)
        if step is None:
            break
        move, current = step
        trace.append(TraceStep(move, q_index(current).q))
    return current, trace
