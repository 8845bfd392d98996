"""Isomorph-free exhaustive generation and extremal argmax.

Each class is built one order at a time by McKay's canonical
augmentation (J. Algorithms 26, 1998): level n extends every member of
the cached level n - 1 by one new vertex z, and a child is kept only if
z lies in the automorphism orbit of the canonical deletion vertex v*,
the eligible vertex placed last by the canonical labeling. Extensions
that an automorphism of the parent maps onto each other give isomorphic
children, so only the least neighbourhood mask of each orbit is tried:
one canonical search of the parent yields generators of its group, and
the masks are walked in ascending order. Children kept from masks in
distinct orbits are pairwise non-isomorphic, so no set of codes is kept.

Each class deletes only vertices that leave a member of the class one
order down, and adds z only with the neighbourhoods such a vertex has:

- connected outerplanar graphs delete a non-cut vertex of degree <= 2.
  For n >= 2 one exists in a leaf block: a bridge has a leaf end, and a
  2-connected outerplanar block has two vertices of degree 2, at most
  one of them the cut vertex joining it to the rest. So z gets one or
  two neighbours.
- connected graphs delete a non-cut vertex (any leaf of a spanning
  tree), and z gets any nonempty neighbourhood.

In each class z itself is eligible: deleting it gives back the parent.
What does not depend on z is computed once per parent: its neighbour
lists, which the child's refinement extends by z, and the components of
the parent minus each vertex v (`Graph.components` masked to all but v);
v is a non-cut vertex of the child iff z's row meets every one of them.
The canonical search places the isomorphism-invariant refinement colours
in ascending order, so v* carries the largest colour of an eligible
vertex, and a child is kept only if z has it too. Colours start from
degree and each round only splits classes, never reorders them, so a
child is decided by z and its rivals, the eligible vertices still tied
with z. (1) The first two rounds are read off the parent's neighbour
lists and the mask, before the child is built: an eligible vertex of
larger degree than z, or of z's degree with larger sorted neighbour
degrees, rejects the child. (2) A leaf z adds no cycle. z joined to u
and w keeps the parent P outerplanar iff u, the cut vertices separating
u from w, and w follow each other along outer edges: bridges, or edges
on their block's Hamiltonian cycle, unique by Sysło (1979). For z's
block of the child is the blocks B on that route plus u-z-w; its
Hamiltonian cycle crosses each B by a Hamiltonian path between B's entry
and exit, and one exists iff they are consecutive on B's cycle, else B
plus the edge entry-exit, a minor of the child, would have two. uv is a
chord iff two components of P - u - v meet N(u) and N(v). Only
consecutive route members are adjacent, so the route holds one outer
edge fewer than members. The rule takes all of an Aut(P) orbit of masks
or none, so it lists the masks the orbit walk takes: every single
vertex, and each pair {u, w} reached by a walk from u along outer edges
that goes on through v only if v separates the vertex before it from
the one after. Each such step crosses the cut vertex v into another
block, so the walk follows a path of the block-cut tree, ends, and meets
exactly the cut vertices separating u from w. (3) A rival v is a
twin of z iff its parent row is the mask less v. A child whose rivals
are all twins of z, or that has none, is kept with neither refinement
nor search: the eligible vertices that are not rivals are already
below z, twins keep z's colour, so v* is z or a twin of z, and swapping
z with a twin is an automorphism. (4) Otherwise refinement stops at the first round in which
a rival outranks z (rejected) or none shares z's colour (z is v*). Only
if a rival still has z's colour in the stable colouring does the
canonical search run, on those colours; z is kept iff v* is in z's
orbit under the generators it finds.

Freeness of a forbidden pattern is closed under subgraphs (containing
`C_l` or `tP_l` is a subgraph property), so it could prune the levels;
it does not, because each level is generated once and shared by every
pattern. `enumerate_class` tests the pattern on every member, and
`extremal_argmax` only on the members its descending-q scan reaches. The
scan runs once per (class, sep): its own `lru_cache` keeps each frozen
result, so the theorem checks of one cell share it. It reads the cached
per-order view `_q_sorted`, which holds the solved members and is never
changed once built.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Iterator

from . import recognition
from .canon import _refine, _search, canonical_code
from .errors import CapacityError, check_sep
from .graphs import Graph, bits
from .spectral import Ordering, SpectralResult, compare_results, q_indices

EXHAUSTIVE_CAP = 10
CONNECTED_CAP = 9  # connected_graphs: order 10 has 11,716,571 graphs


@dataclass(frozen=True)
class EnumerationClass:
    """The connected outerplanar graphs of order n <= EXHAUSTIVE_CAP, `pattern`-free if given."""

    n: int
    pattern: recognition.ForbiddenPattern | None = None

    def __post_init__(self):
        recognition.check_pattern(self.pattern)
        _check_level(self.n, EXHAUSTIVE_CAP)


def _rivals(degree: list[int], nbrs: list[list[int]], split: list[list[int]],
            mask: int, outerplanar: bool) -> int | None:
    """The eligible parent vertices that the first two refinement rounds
    of the child joining z to `mask` leave tied with z, as a bitmask;
    None if an eligible vertex outranks z. Round 1 colours by degree and
    round 2 by the sorted neighbour degrees (round-1 colours are ranks
    of degree, so these compare alike), read off the parent and the mask.
    v is a non-cut vertex of the child iff z's row meets every component
    of the parent minus v."""
    z_degree = mask.bit_count()
    z_key = None
    rivals = 0
    for v, parts in enumerate(split):
        d = degree[v] + (mask >> v & 1)
        if d < z_degree or (outerplanar and d > 2) or not all(mask & p for p in parts):
            continue
        if d > z_degree:
            return None
        if z_key is None:
            z_key = sorted([degree[w] + 1 for w in bits(mask)])
        key = sorted([degree[w] + (mask >> w & 1) for w in nbrs[v]] + [z_degree] * (mask >> v & 1))
        if key > z_key:
            return None
        if key == z_key:
            rivals |= 1 << v
    return rivals


def _orbit(mask: int, images: list[list[int]]) -> set[int]:
    """The orbit of a vertex set under the generators, each given by the
    bit image of every vertex."""
    orbit = {mask}
    stack = [mask]
    while stack:
        m = stack.pop()
        for image in images:
            m2 = 0
            rest = m
            while rest:
                low = rest & -rest
                m2 |= image[low.bit_length() - 1]
                rest ^= low
            if m2 not in orbit:
                orbit.add(m2)
                stack.append(m2)
    return orbit


def _admissible(parent: Graph, degree: list[int], split: list[list[int]]) -> list[int]:
    """Rule (2) for a connected outerplanar parent: the masks of one or two
    vertices whose z keeps the parent outerplanar, ascending. The walk goes
    on through v only into a part of `split[v]` other than the one it left."""
    outer = list(parent.adj)  # rows of the outer edges
    for u, v in parent.edges():
        if degree[u] > 2 < degree[v] and sum(1 for p in parent.components(~(1 << u | 1 << v))
                                             if p & parent.adj[u] and p & parent.adj[v]) > 1:
            outer[u] ^= 1 << v
            outer[v] ^= 1 << u
    masks = [1 << u for u in range(parent.n)]
    for u in range(parent.n):
        stack = [(u, v) for v in bits(outer[u])]
        while stack:
            prev, v = stack.pop()
            if v < u:
                masks.append(1 << u | 1 << v)
            if len(split[v]) > 1:  # else its one part is the one the walk came from
                came = next(p for p in split[v] if p >> prev & 1)
                stack += [(v, w) for w in bits(outer[v] & ~came)]
    return sorted(masks)


def _children(parent: Graph, outerplanar: bool) -> Iterator[Graph]:
    z = parent.n
    nbrs = [list(bits(row)) for row in parent.adj]
    degree = [len(nv) for nv in nbrs]
    split = [parent.components(~(1 << v)) for v in range(z)]
    images = [[1 << w for w in sigma] for sigma in _search(parent, _refine(parent))[2]]
    tried: set[int] = set()
    for mask in _admissible(parent, degree, split) if outerplanar else range(1, 1 << z):
        if mask in tried:
            continue
        if images:
            tried |= _orbit(mask, images)
        rivals = _rivals(degree, nbrs, split, mask, outerplanar)
        if rivals is None:
            continue
        child = parent.with_new_vertex(mask)
        if any(parent.adj[v] != mask & ~(1 << v) for v in bits(rivals)):
            child_nbrs = [nv + [z] if mask >> v & 1 else nv for v, nv in enumerate(nbrs)]
            child_nbrs.append(list(bits(mask)))
            color = _refine(child, z, rivals, child_nbrs)
            if color is None:
                continue
            top = [v for v in bits(rivals | 1 << z) if color[v] == color[z]]
            if len(top) > 1:
                _, labeling, generators = _search(child, color)
                child_images = [[1 << w for w in sigma] for sigma in generators]
                if 1 << max(top, key=labeling.index) not in _orbit(1 << z, child_images):
                    continue
        yield child


def _check_level(n: int, cap: int) -> None:
    """Refuse an order not an int in 1..cap; 5.0 or True would be a second cache key."""
    if type(n) is not int:
        raise CapacityError(f"exhaustive enumeration needs an int order, got {n!r}")
    if not 1 <= n <= cap:
        raise CapacityError(f"exhaustive enumeration needs 1 <= n <= {cap}, got {n}")


def _generate(n: int, generator: Callable[[int], tuple[Graph, ...]],
              outerplanar: bool) -> tuple[Graph, ...]:
    """Level n of a class from `generator(n - 1)`, its cached level below."""
    _check_level(n, EXHAUSTIVE_CAP if outerplanar else CONNECTED_CAP)
    if n == 1:
        return (Graph(1, (0,)),)
    return tuple(
        child
        for parent in generator(n - 1)
        for child in _children(parent, outerplanar)
    )


@lru_cache(maxsize=None)
def connected_outerplanar(n: int) -> tuple[Graph, ...]:
    """All connected outerplanar graphs of order n, one per isomorphism class."""
    return _generate(n, connected_outerplanar, True)


@lru_cache(maxsize=None)
def connected_graphs(n: int) -> tuple[Graph, ...]:
    """All connected graphs of order n, up to isomorphism."""
    return _generate(n, connected_graphs, False)


def enumerate_class(cls: EnumerationClass) -> Iterator[Graph]:
    """Stream the class members, pairwise non-isomorphic."""
    for g in connected_outerplanar(cls.n):
        if cls.pattern is None or recognition.is_f_free(g, cls.pattern):
            yield g


@lru_cache(maxsize=None)
def _q_sorted(n: int) -> tuple[tuple[tuple[SpectralResult, Graph], ...], float]:
    """Every member of the unfiltered class with its solve, in descending
    q (stable, so ties keep enumeration order), and the largest radius."""
    base = connected_outerplanar(n)
    solved = sorted(zip(q_indices(base), base), key=lambda rg: -rg[0].q)
    return tuple(solved), max(res.radius for res, _ in solved)


@dataclass(frozen=True)
class ArgmaxResult:
    graphs: tuple[Graph, ...]  # in the order of their canonical codes
    q: float
    margin: float
    codes: tuple[bytes, ...]  # canonical_code of each graph

    @property
    def unique(self) -> bool:
        return len(self.graphs) == 1 and self.margin > 0


def extremal_argmax(cls: EnumerationClass, sep: float = 1e-9) -> ArgmaxResult:
    """All Q-index maximizers of the class.

    The unfiltered class is scanned in descending q, and the pattern is
    tested only on the members the scan reaches. The first pattern-free
    member is the maximum `top` (the first maximal member in enumeration
    order). A later pattern-free member is excluded when `top` beats it
    by more than `sep` plus both radii (`compare_results`); the rest are
    winners. The margin is the gap between `top` and the first excluded
    member, the best one (inf when nothing is excluded). Once that one is
    found, the scan stops at the first member that `compare_results`
    finds LESS than `top` at the class's widest radius r_max: it and every
    later member would be excluded. An infinite radius scans the whole class.

    The scan's `lru_cache` keeps the result per (class, sep), so a
    repeated call returns the same frozen result without a scan; a call
    that raises keeps nothing.
    """
    check_sep(sep)
    return _scan(cls, sep)


@lru_cache(maxsize=None)
def _scan(cls: EnumerationClass, sep: float) -> ArgmaxResult:
    """The argmax of `extremal_argmax`, from the view of order `cls.n`."""
    solved, r_max = _q_sorted(cls.n)
    top = excluded = None
    winners = []
    for res, g in solved:
        if excluded is not None and compare_results(
                replace(res, radius=r_max), top, sep) is Ordering.LESS:
            break
        if cls.pattern is not None and not recognition.is_f_free(g, cls.pattern):
            continue
        if top is None:
            top = res
        elif compare_results(res, top, sep) is Ordering.LESS:
            if excluded is None:
                excluded = res.q
            continue
        winners.append(g)
    if top is None:
        raise CapacityError(f"empty class {cls}")
    margin = top.q - excluded if excluded is not None else float("inf")
    ranked = sorted(((canonical_code(g), g) for g in winners), key=lambda cg: cg[0])
    return ArgmaxResult(tuple(g for _, g in ranked), top.q, margin,
                        tuple(code for code, _ in ranked))
