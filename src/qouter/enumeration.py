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
degrees, rejects the child. (2) A z with two neighbours is tested by
`recognition.is_outerplanar`; a leaf z adds no cycle to its outerplanar
parent and needs no test. (3) With rivals left, refinement stops at the
first round in which one outranks z (rejected) or none shares z's colour
(z is v*). (4) Only if a rival still has z's colour in the stable
colouring does the canonical search run, on those colours; the
automorphism orbits it finds decide whether z is in the orbit of v*.
Without a rival z is v*, and the child is kept unsearched.

Freeness of a forbidden pattern is closed under subgraphs (containing
`C_l` or `tP_l` is a subgraph property), so it could prune the levels;
it does not, because each level is generated once and shared by every
pattern. `enumerate_class` tests the pattern on every member, and
`extremal_argmax` only on the members its descending-q scan reaches.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

from . import recognition
from .canon import _refine, _search, canonical_code
from .errors import CapacityError, check_sep
from .graphs import Graph, bits
from .spectral import Ordering, SpectralResult, compare_results, q_indices

EXHAUSTIVE_CAP = 10


@dataclass(frozen=True)
class EnumerationClass:
    """The connected outerplanar graphs of order n, `pattern`-free if given."""

    n: int
    pattern: recognition.ForbiddenPattern | None = None


@lru_cache(maxsize=None)
def _masks(order: int, outerplanar: bool) -> tuple[int, ...]:
    """Neighbourhoods of the new vertex, ascending: nonempty, and at most
    two vertices if outerplanar."""
    high = 2 if outerplanar else order
    return tuple(m for m in range(1, 1 << order) if m.bit_count() <= high)


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
            for v in bits(m):
                m2 |= image[v]
            if m2 not in orbit:
                orbit.add(m2)
                stack.append(m2)
    return orbit


def _children(parent: Graph, outerplanar: bool) -> Iterator[Graph]:
    z = parent.n
    nbrs = [list(bits(row)) for row in parent.adj]
    degree = [len(nv) for nv in nbrs]
    split = [parent.components(~(1 << v)) for v in range(z)]
    images = [[1 << w for w in sigma] for sigma in _search(parent, _refine(parent))[3]]
    tried: set[int] = set()
    for mask in _masks(z, outerplanar):
        if mask in tried:
            continue
        if images:
            tried |= _orbit(mask, images)
        rivals = _rivals(degree, nbrs, split, mask, outerplanar)
        if rivals is None:
            continue
        child = parent.with_new_vertex(mask)
        if outerplanar and mask.bit_count() == 2 and not recognition.is_outerplanar(child):
            continue
        if rivals:
            child_nbrs = [nv + [z] if mask >> v & 1 else nv for v, nv in enumerate(nbrs)]
            child_nbrs.append(list(bits(mask)))
            color = _refine(child, z, rivals, child_nbrs)
            if color is None:
                continue
            top = [v for v in bits(rivals | 1 << z) if color[v] == color[z]]
            if len(top) > 1:
                _, labeling, orbit, _ = _search(child, color)
                if orbit[z] != orbit[max(top, key=labeling.index)]:
                    continue
        yield child


def _generate(n: int, generator: Callable[[int], tuple[Graph, ...]],
              outerplanar: bool) -> tuple[Graph, ...]:
    """Level n of a class from `generator(n - 1)`, its cached level below."""
    if not 1 <= n <= EXHAUSTIVE_CAP:
        raise CapacityError(f"exhaustive enumeration needs 1 <= n <= {EXHAUSTIVE_CAP}, got {n}")
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
    by more than `sep` plus both enclosure radii (`compare_results`);
    the rest are winners. The margin is the gap between `top`
    and the first excluded member, the best one (inf when nothing is
    excluded). Once that member is found, the scan stops at the first
    member with `top.q - q > sep + r_max + top.radius`, r_max being the
    largest radius in the class: it and every later member would be
    excluded. With an infinite radius the scan covers the whole class.
    """
    check_sep(sep)
    solved, r_max = _q_sorted(cls.n)
    top = excluded = None
    winners = []
    for res, g in solved:
        if excluded is not None and top.q - res.q > sep + r_max + top.radius:
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
