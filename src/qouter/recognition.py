"""Outerplanarity, forbidden-pattern containment, and neighborhood predicates.

Outerplanarity is decided by one series reduction: vertices of degree
<= 1 are deleted and vertices of degree 2 smoothed, while each edge
counts how many sides of it are already filled. It runs on the whole
graph, whatever its components, and serves every caller: generation,
the ascent and the constructions' class checks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import PatternError
from .graphs import Graph, bits

@dataclass(frozen=True)
class ForbiddenPattern:
    """Either a cycle C_ell or a union of t disjoint paths P_ell."""

    kind: str  # "cycle" | "paths"
    ell: int
    t: int = 1

    def __post_init__(self):
        if self.kind == "cycle":
            if self.ell < 3 or self.t != 1:
                raise PatternError(f"cycle pattern needs ell >= 3, t = 1")
        elif self.kind == "paths":
            if self.t < 1 or self.ell < 2:
                raise PatternError("path pattern needs t >= 1, ell >= 2")
        else:
            raise PatternError(f"unknown pattern kind {self.kind!r}")

    @classmethod
    def cycle(cls, ell: int) -> "ForbiddenPattern":
        return cls("cycle", ell)

    @classmethod
    def paths(cls, t: int, ell: int) -> "ForbiddenPattern":
        return cls("paths", ell, t)

    @classmethod
    def parse(cls, text: str) -> "ForbiddenPattern":
        """Parse 'C<ell>' or '<t>P<ell>' (t defaults to 1)."""
        m = re.fullmatch(r"C(\d+)", text)
        if m:
            return cls.cycle(int(m.group(1)))
        m = re.fullmatch(r"(\d*)P(\d+)", text)
        if m:
            t = int(m.group(1)) if m.group(1) else 1
            return cls.paths(t, int(m.group(2)))
        raise PatternError(f"cannot parse pattern {text!r}")

    def __str__(self) -> str:
        if self.kind == "cycle":
            return f"C{self.ell}"
        return f"{self.t}P{self.ell}" if self.t != 1 else f"P{self.ell}"


# -- outerplanarity ---------------------------------------------------


def is_outerplanar(g: Graph) -> bool:
    """Series reduction with side counts (Mitchell, IPL 9, 1979).

    Vertices of degree <= 1 are deleted and vertices of degree 2 are
    smoothed. Each current edge uw stands for a u-w subgraph of g and
    counts how many of the two sides of uw that subgraph fills: an edge
    of g fills none, each smoothed u-w path merged into uw fills one
    more, and a path through an edge that fills both sides fills both. A
    third side makes a K_{2,3} subdivision; a remainder of minimum
    degree >= 3 contains a K_4 subdivision. g is outerplanar iff every
    vertex is deleted.
    """
    if g.n >= 2 and g.m > 2 * g.n - 3:  # a shortcut; the reduction rejects these too
        return False
    adj = list(g.adj)
    sides: dict[int, int] = {}  # keyed by the edge's two-bit vertex mask
    alive = (1 << g.n) - 1
    stack = [v for v in range(g.n) if adj[v].bit_count() <= 2]
    while stack:
        v = stack.pop()
        if not (alive >> v) & 1 or adj[v].bit_count() > 2:
            continue
        alive &= ~(1 << v)
        nbrs = list(bits(adj[v]))
        for u in nbrs:
            adj[u] &= ~(1 << v)
        if len(nbrs) == 2:
            u, w = nbrs
            outer = max(sides.get(1 << u | 1 << v, 0), sides.get(1 << v | 1 << w, 0))
            uw = 1 << u | 1 << w
            if (adj[u] >> w) & 1:
                inner = sides.get(uw, 0)
                if outer == 2 or inner == 2:
                    return False
                sides[uw] = inner + 1
            else:
                adj[u] |= 1 << w
                adj[w] |= 1 << u
                sides[uw] = 2 if outer == 2 else 1
        stack.extend(u for u in nbrs if adj[u].bit_count() <= 2)
    return alive == 0


# -- subgraph containment ---------------------------------------------


def contains_cycle(g: Graph, ell: int) -> bool:
    """True iff g has a cycle on exactly ell vertices as a subgraph."""
    if ell < 3:
        raise PatternError(f"cycle length {ell} < 3")
    if ell > g.n:
        return False

    def grow(anchor: int, cur: int, used: int, depth: int) -> bool:
        if depth == ell:
            return bool((g.adj[cur] >> anchor) & 1)
        for w in bits(g.adj[cur]):
            if w > anchor and not (used >> w) & 1:
                if grow(anchor, w, used | (1 << w), depth + 1):
                    return True
        return False

    return any(grow(s, s, 1 << s, 1) for s in range(g.n))


def contains_disjoint_paths(g: Graph, t: int, ell: int) -> bool:
    """True iff g contains t vertex-disjoint paths, each on exactly ell
    vertices; paths are searched in increasing order of their least vertex."""
    if t < 1 or ell < 2:
        raise PatternError(f"path union needs t >= 1, ell >= 2")
    if t * ell > g.n:
        return False

    def place(remaining: int, used: int, min_start: int) -> bool:
        if remaining == 0:
            return True
        for s in range(min_start, g.n):
            if (used >> s) & 1:
                continue
            # s is the least vertex of the next path; walk one side from s,
            # trying every split of the path around s
            if _paths_through(s, used, remaining):
                return True
        return False

    def _paths_through(s: int, used: int, remaining: int) -> bool:
        # enumerate simple paths on ell vertices containing s with every
        # vertex > s except s itself

        def left(seq: tuple[int, ...], used2: int) -> bool:
            # seq grows to the left of s; then grow right side
            head = seq[0]
            if right(seq, used2):
                return True
            if len(seq) == ell:
                return False
            for w in bits(g.adj[head]):
                if w > s and not (used2 >> w) & 1:
                    if left((w,) + seq, used2 | (1 << w)):
                        return True
            return False

        def right(seq: tuple[int, ...], used2: int) -> bool:
            if len(seq) == ell:
                if seq[0] > seq[-1]:
                    return False
                return place(remaining - 1, used2, s + 1)
            tail = seq[-1]
            for w in bits(g.adj[tail]):
                if w > s and not (used2 >> w) & 1:
                    if right(seq + (w,), used2 | (1 << w)):
                        return True
            return False

        return left((s,), used | (1 << s))

    return place(t, 0, 0)


def is_f_free(g: Graph, pattern: ForbiddenPattern) -> bool:
    if pattern.kind == "cycle":
        return not contains_cycle(g, pattern.ell)
    return not contains_disjoint_paths(g, pattern.t, pattern.ell)


# -- neighborhood structure -------------------------------------------


def neighborhood_is_paths(g: Graph, u: int) -> bool:
    """True iff every component of the subgraph induced by N(u) is a path:
    of maximum degree <= 2 and acyclic, i.e. m = n - #components."""
    nbrs = g.adj[u]
    if nbrs == 0:
        return True
    sub = g.induced(bits(nbrs))
    return sub.max_degree() <= 2 and sub.m == sub.n - len(sub.components())


def common_neighbors(g: Graph, u: int, v: int) -> tuple[int, ...]:
    return tuple(bits(g.adj[u] & g.adj[v]))
