"""Outerplanarity, forbidden-pattern containment, and neighborhood predicates.

Outerplanarity is decided by one series reduction: vertices of degree
<= 1 are deleted and vertices of degree 2 smoothed, while each edge
counts how many sides of it are already filled. It runs on the whole
graph, whatever its components; only the ascent calls it, and generation
reads it off each parent. Both forbidden patterns are decided by one
path search, `_paths_from`, held in `is_f_free`: a C_l is a path on l
vertices that ends next to its start, and tP_l is t disjoint paths.
`ForbiddenPattern` checks t and l; `contains_cycle` and
`contains_disjoint_paths` check their arguments by building one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

from .errors import PatternError
from .graphs import Graph, bits

@dataclass(frozen=True)
class ForbiddenPattern:
    """Either a cycle C_ell or a union of t disjoint paths P_ell."""

    kind: str  # "cycle" | "paths"
    ell: int
    t: int = 1

    def __post_init__(self):
        if type(self.ell) is not int or type(self.t) is not int:  # a bool is no length
            raise PatternError(f"pattern needs int ell and t, got ell={self.ell!r}, t={self.t!r}")
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


def _paths_from(g: Graph, s: int, k: int, allowed: int) -> Iterator[tuple[int, int]]:
    """(end, vertex mask) of every path on k vertices from s whose other
    vertices are in the bitmask allowed, lowest neighbour first."""
    stack = [(s, 1 << s)]
    while stack:
        v, mask = stack.pop()
        if mask.bit_count() == k:
            yield v, mask
            continue
        free = g.adj[v] & allowed & ~mask
        while free:  # pushed highest first, so popped lowest first
            w = free.bit_length() - 1
            stack.append((w, mask | 1 << w))
            free ^= 1 << w


def is_f_free(g: Graph, pattern: ForbiddenPattern) -> bool:
    """True iff g has no subgraph `pattern` (whose type checked its t and
    ell). A C_ell is a path on ell vertices from its least vertex s that
    ends next to s; tP_ell is t disjoint paths on ell vertices, each grown
    from its smaller end a, placed in increasing a."""
    ell = pattern.ell
    if pattern.kind == "cycle":
        return ell > g.n or not any(
            (g.adj[end] >> s) & 1  # -(2 << s) masks the vertices above s
            for s in range(g.n) for end, _ in _paths_from(g, s, ell, -(2 << s)))
    if pattern.t * ell > g.n:
        return True

    def pack(remaining: int, used: int, first: int) -> bool:
        return remaining == 0 or any(
            end > a and pack(remaining - 1, used | mask, a + 1)
            for a in range(first, g.n) if not (used >> a) & 1
            for end, mask in _paths_from(g, a, ell, ~used))

    return not pack(pattern.t, 0, 0)


def contains_cycle(g: Graph, ell: int) -> bool:
    """True iff g has a cycle on exactly ell vertices as a subgraph."""
    return not is_f_free(g, ForbiddenPattern.cycle(ell))


def contains_disjoint_paths(g: Graph, t: int, ell: int) -> bool:
    """True iff g contains t vertex-disjoint paths, each on exactly ell vertices."""
    return not is_f_free(g, ForbiddenPattern.paths(t, ell))


# -- neighborhood structure -------------------------------------------


def neighborhood_is_paths(g: Graph, u: int) -> bool:
    """True iff every component of the subgraph induced by N(u) is a path:
    of maximum degree <= 2 and acyclic, i.e. m = n - #components."""
    nbrs = g.adj[u]
    degrees = [(g.adj[x] & nbrs).bit_count() for x in bits(nbrs)]
    return (max(degrees, default=0) <= 2
            and sum(degrees) // 2 == len(degrees) - len(g.components(nbrs)))


def common_neighbors(g: Graph, u: int, v: int) -> tuple[int, ...]:
    return tuple(bits(g.adj[u] & g.adj[v]))
