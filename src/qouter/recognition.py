"""Outerplanarity, forbidden-pattern containment, and neighborhood predicates.

Outerplanarity is decided through its forbidden minors K_4 and K_{2,3}.
Both patterns have maximum degree 3, so minor containment coincides with
topological-minor containment; that allows two fast exact tests:

* K_4: repeatedly delete degree-<=1 vertices and smooth degree-2 vertices.
  The reduction preserves K_4-minor-presence in both directions, and a
  nonempty remainder has minimum degree >= 3, hence a K_4 subdivision.
* K_{2,3}: some pair u, v admits three internally vertex-disjoint u-v
  paths of length >= 2, i.e. local connectivity >= 3 after removing a
  possible uv edge (Menger).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import PatternError
from .graphs import Graph, bits

K4 = "K4"
K23 = "K2,3"


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


# -- minors -----------------------------------------------------------


def _has_k4_minor(g: Graph) -> bool:
    adj = {v: set(bits(g.adj[v])) for v in range(g.n)}
    queue = [v for v in adj if len(adj[v]) <= 2]
    while queue:
        v = queue.pop()
        if v not in adj or len(adj[v]) > 2:
            continue
        nbrs = list(adj[v])
        for u in nbrs:
            adj[u].discard(v)
        del adj[v]
        if len(nbrs) == 2:
            a, b = nbrs
            if b not in adj[a]:
                adj[a].add(b)
                adj[b].add(a)
        for u in nbrs:
            if len(adj[u]) <= 2:
                queue.append(u)
    return bool(adj)


def _three_disjoint_paths(g: Graph, s: int, t: int) -> bool:
    """>= 3 internally vertex-disjoint s-t paths avoiding a direct st edge."""
    # unit-capacity flow on the vertex-split graph; 3 augmentations suffice
    n = g.n
    # nodes: 2v = v_in, 2v+1 = v_out
    res: list[dict[int, int]] = [{} for _ in range(2 * n)]
    for v in range(n):
        res[2 * v][2 * v + 1] = 1 if v not in (s, t) else 3
    for u in range(n):
        for v in bits(g.adj[u]):
            if {u, v} == {s, t}:
                continue
            res[2 * u + 1][2 * v] = 1
    source, sink = 2 * s + 1, 2 * t
    for _ in range(3):
        # BFS for an augmenting path in the residual graph
        prev = {source: source}
        frontier = [source]
        found = False
        while frontier and not found:
            nxt = []
            for a in frontier:
                for y, c in res[a].items():
                    if c > 0 and y not in prev:
                        prev[y] = a
                        if y == sink:
                            found = True
                            break
                        nxt.append(y)
                if found:
                    break
            frontier = nxt
        if not found:
            return False
        y = sink
        while y != source:
            x = prev[y]
            res[x][y] -= 1
            res[y][x] = res[y].get(x, 0) + 1
            y = x
    return True


def _has_k23_minor(g: Graph) -> bool:
    if g.n < 5:
        return False
    degs = [g.adj[v].bit_count() for v in range(g.n)]
    hubs = [
        v
        for v in range(g.n)
        if degs[v] >= 3
    ]
    for i, u in enumerate(hubs):
        for v in hubs[i + 1 :]:
            if g.has_edge(u, v) and (degs[u] < 4 or degs[v] < 4):
                continue
            if _three_disjoint_paths(g, u, v):
                return True
    return False


def has_minor(g: Graph, pattern: str) -> bool:
    """Exact minor test for the two outerplanarity obstructions."""
    if pattern == K4:
        return _has_k4_minor(g)
    if pattern in (K23, "K23"):
        return _has_k23_minor(g)
    raise PatternError(f"unsupported minor pattern {pattern!r}")


def is_outerplanar(g: Graph) -> bool:
    for comp in g.components():
        sub = g.induced(bits(comp)) if comp != (1 << g.n) - 1 else g
        if sub.n <= 3:
            continue
        if sub.m > 2 * sub.n - 3:
            return False
        if _has_k4_minor(sub) or _has_k23_minor(sub):
            return False
    return True


def is_outerplanar_extension(g: Graph) -> bool:
    """`is_outerplanar(g)` for a g that is outerplanar without its last
    vertex z. A z of degree <= 1 adds no cycle. A z joined to both ends
    of an edge uv makes g non-outerplanar iff three internally disjoint
    u-v paths avoid uv (a K_{2,3} subdivision); otherwise uv is a bridge
    or on the outer cycle of its block, and z fits beside it in the outer
    face. Any other z is tested in full."""
    nbrs = list(bits(g.adj[-1]))
    if len(nbrs) <= 1:
        return True
    if len(nbrs) == 2 and g.has_edge(*nbrs):
        return not _three_disjoint_paths(g, *nbrs)
    return is_outerplanar(g)


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

    def extend(seq_first: int, cur: int, used: int, count: int, floor: int,
               remaining: int) -> bool:
        if count == ell:
            # direction dedup: first endpoint below last
            if seq_first > cur:
                return False
            return place(remaining - 1, used, floor + 1)
        for w in bits(g.adj[cur]):
            if w > floor and not (used >> w) & 1:
                if extend(seq_first, w, used | (1 << w), count + 1,
                          floor, remaining):
                    return True
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
    """True iff every component of the subgraph induced by N(u) is a path."""
    nbrs = g.adj[u]
    if nbrs == 0:
        return True
    sub = g.induced(bits(nbrs))
    if any(sub.degree(v) > 2 for v in range(sub.n)):
        return False
    for comp in sub.components():
        part = sub.induced(bits(comp))
        if part.m != part.n - 1:
            return False
    return True


def common_neighbors(g: Graph, u: int, v: int) -> tuple[int, ...]:
    return tuple(bits(g.adj[u] & g.adj[v]))
