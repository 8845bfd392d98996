"""Immutable simple graphs on at most 64 vertices, stored as bitset rows.

Every mutator returns a fresh Graph; adjacency rows fit in one machine
word so neighborhood intersections are single AND operations. `Graph(n,
adj)` and `from_edges` validate their rows; the mutators and the
constructions built from valid graphs skip that check, since their
outputs are valid by construction once their own arguments are checked.
Every builder given an order checks it with `check_order`. A vertex, mask
or row argument must be an int, a bool being none; the queries check nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import CapacityError, EdgeStateError

MAX_VERTICES = 64


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def check_order(n: int) -> None:
    """Refuse an order that is not an int in 1..MAX_VERTICES; a bool is none."""
    if type(n) is not int or not 1 <= n <= MAX_VERTICES:
        raise CapacityError(f"order {n!r} outside 1..{MAX_VERTICES}, or not an int")


def _check_endpoints(n: int, u: int, v: int) -> None:
    if type(u) is not int or type(v) is not int or not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u!r}, {v!r}) has an endpoint outside 0..{n - 1}, or not an int")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; adj[v] is the neighbor bitmask of v."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        check_order(self.n)
        if type(self.adj) is not tuple:  # a list would make the graph unhashable
            raise ValueError(f"adj must be a tuple of rows, got {type(self.adj).__name__}")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match order")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if type(row) is not int:  # a bool row would read as 0 or 1
                raise ValueError(f"row {v} is {row!r}, not an int")
            if row & ~full:
                raise ValueError(f"row {v} references vertices >= {self.n}")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v in range(self.n):
            for u in bits(self.adj[v]):
                if not (self.adj[u] >> v) & 1:
                    raise ValueError(f"asymmetric edge {v}-{u}")

    @classmethod
    def _trusted(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        """A graph from rows known to be valid, without re-validating them."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

    # -- queries ------------------------------------------------------

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1)):
                yield (u, u + 1 + v)

    def max_degree(self) -> int:
        return max(row.bit_count() for row in self.adj)

    # -- copy-on-write mutators ---------------------------------------

    def add_edge(self, u: int, v: int) -> "Graph":
        _check_endpoints(self.n, u, v)
        if u == v:
            raise EdgeStateError("cannot add a self-loop")
        if self.has_edge(u, v):
            raise EdgeStateError(f"edge {u}-{v} already present")
        rows = list(self.adj)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph._trusted(self.n, tuple(rows))

    def remove_edge(self, u: int, v: int) -> "Graph":
        _check_endpoints(self.n, u, v)
        if not self.has_edge(u, v):
            raise EdgeStateError(f"edge {u}-{v} not present")
        rows = list(self.adj)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph._trusted(self.n, tuple(rows))

    def induced(self, vertices: Iterable[int]) -> "Graph":
        """Subgraph induced by the given vertices, relabeled in sorted order."""
        vertices = list(vertices)
        if any(type(v) is not int for v in vertices):
            raise ValueError(f"induced vertices {vertices} are not all ints")
        keep = sorted(set(vertices))
        if not keep:
            raise CapacityError("induced subgraph on no vertices")
        if keep[0] < 0 or keep[-1] >= self.n:
            raise ValueError(f"induced vertices {keep} outside 0..{self.n - 1}")
        index = {v: i for i, v in enumerate(keep)}
        rows = [0] * len(keep)
        for v in keep:
            for u in bits(self.adj[v]):
                if u in index:
                    rows[index[v]] |= 1 << index[u]
        return Graph._trusted(len(keep), tuple(rows))

    def with_new_vertex(self, neighbor_mask: int) -> "Graph":
        """Append one vertex adjacent to the vertices in neighbor_mask."""
        if self.n + 1 > MAX_VERTICES:
            raise CapacityError("order would exceed 64")
        if type(neighbor_mask) is not int or not 0 <= neighbor_mask < 1 << self.n:
            raise ValueError(f"neighbor mask {neighbor_mask!r} outside vertices "
                             f"0..{self.n - 1}, or not an int")
        rows = list(self.adj)
        z = self.n
        for u in bits(neighbor_mask):
            rows[u] |= 1 << z
        rows.append(neighbor_mask)
        return Graph._trusted(self.n + 1, tuple(rows))

    def permuted(self, perm: Iterable[int]) -> "Graph":
        """Relabel: vertex v becomes perm[v]."""
        perm = list(perm)
        if any(type(v) is not int for v in perm) or sorted(perm) != list(range(self.n)):
            raise ValueError(f"{perm} is not a permutation of 0..{self.n - 1}")
        rows = [0] * self.n
        for v in range(self.n):
            for u in bits(self.adj[v]):
                rows[perm[v]] |= 1 << perm[u]
        return Graph._trusted(self.n, tuple(rows))

    # -- connectivity -------------------------------------------------

    def reachable_mask(self, start: int, within: int = -1) -> int:
        """Vertex mask of start's component in G[within], all of G by
        default, by breadth-first search over bitsets. The frontier is
        walked inline: the bits() generator costs about twice as much on
        the small graphs generation makes."""
        adj = self.adj
        seen = 1 << start
        frontier = seen
        while frontier:
            grow = 0
            while frontier:
                low = frontier & -frontier
                grow |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = grow & within & ~seen
            seen |= frontier
        return seen

    def is_connected(self) -> bool:
        return self.reachable_mask(0) == (1 << self.n) - 1

    def components(self, within: int = -1) -> list[int]:
        """Vertex bitmasks of the components of G[within], all of G by
        default, by least vertex."""
        remaining = within & (1 << self.n) - 1
        comps = []
        while remaining:
            start = (remaining & -remaining).bit_length() - 1
            mask = self.reachable_mask(start, within)
            comps.append(mask)
            remaining &= ~mask
        return comps


# -- standard constructions -------------------------------------------


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    check_order(n)
    rows = [0] * n
    for u, v in edges:
        _check_endpoints(n, u, v)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def path(k: int) -> Graph:
    """P_k: k vertices in a line; P_1 is a single vertex."""
    check_order(k)
    full = (1 << k) - 1
    return Graph._trusted(k, tuple((1 << i >> 1 | 1 << i + 1) & full for i in range(k)))


def cycle(k: int) -> Graph:
    """C_k: P_k closed by the edge between its ends."""
    if k < 3:
        raise CapacityError(f"cycle needs order >= 3, got {k}")
    return path(k).add_edge(0, k - 1)


def star(k: int) -> Graph:
    """K_{1,k-1} with the center at vertex 0."""
    check_order(k)
    return from_edges(k, ((0, i) for i in range(1, k)))


def complete(k: int) -> Graph:
    check_order(k)
    return from_edges(k, ((i, j) for i in range(k) for j in range(i + 1, k)))


def disjoint_union(graphs: Iterable[Graph]) -> Graph:
    graphs = list(graphs)
    if not graphs:
        raise CapacityError("union of zero graphs")
    total = sum(g.n for g in graphs)
    if total > MAX_VERTICES:
        raise CapacityError(f"union order {total} exceeds {MAX_VERTICES}")
    rows: list[int] = []
    offset = 0
    for g in graphs:
        rows.extend(row << offset for row in g.adj)
        offset += g.n
    return Graph._trusted(total, tuple(rows))


def join_one(g: Graph) -> Graph:
    """K_1 v g: one new vertex adjacent to every vertex of g."""
    return g.with_new_vertex((1 << g.n) - 1)
