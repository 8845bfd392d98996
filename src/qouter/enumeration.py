"""Isomorph-free exhaustive generation and extremal argmax.

Each class is built one order at a time by McKay's canonical
augmentation (J. Algorithms 26, 1998): level n extends every member of
the cached level n - 1 by one new vertex z, and a child is kept only if
z lies in the automorphism orbit of the canonical deletion vertex v*,
the eligible vertex placed last by the canonical labeling. Children from
distinct extensions of one parent are deduplicated per parent, so the
dedup set never outgrows one parent's children.

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
Cut vertices come from bitmask reachability on the child's rows. The
canonical search places the isomorphism-invariant refinement colours in
ascending order, so v* carries the largest colour of an eligible vertex,
and a child is kept only if z has it too. Each child is decided by the
cheapest test that settles it. (1) Colours start from degree and never
reorder, so an eligible vertex of larger degree than z rejects it at
once. (2) Refinement stops at the first round in which an eligible
vertex of z's degree outranks z. (3) Outerplanarity is decided from the
outerplanar parent (`recognition.is_outerplanar_extension`). (4) The
canonical search of a survivor reuses the colours of (2).

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
from .spectral import SpectralResult, q_index, q_indices

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


def _non_cut(adj: tuple[int, ...], v: int) -> bool:
    """Whether deleting v leaves the rest of a connected graph connected."""
    row = adj[v]
    if row & (row - 1) == 0:
        return True
    rest = ((1 << len(adj)) - 1) & ~(1 << v)
    seen = frontier = row & -row
    while frontier:
        grow = 0
        for u in bits(frontier):
            grow |= adj[u]
        frontier = grow & rest & ~seen
        seen |= frontier
    return seen == rest


def _rivals(adj: tuple[int, ...], outerplanar: bool) -> int | None:
    """The eligible vertices of z's degree other than z, the last vertex,
    as a bitmask; None if an eligible vertex has a larger degree."""
    degree = adj[-1].bit_count()
    rivals = 0
    for v in range(len(adj) - 1):
        d = adj[v].bit_count()
        if d < degree or (outerplanar and d > 2) or not _non_cut(adj, v):
            continue
        if d > degree:
            return None
        rivals |= 1 << v
    return rivals


def _children(parent: Graph, outerplanar: bool) -> Iterator[Graph]:
    seen: set[tuple[int, ...]] = set()
    z = parent.n
    for mask in _masks(parent.n, outerplanar):
        child = parent.with_new_vertex(mask)
        rivals = _rivals(child.adj, outerplanar)
        color = None if rivals is None else _refine(child, None, z, rivals)
        if color is None:
            continue
        if outerplanar and not recognition.is_outerplanar_extension(child):
            continue
        code, labeling = _search(child, color)
        top = [v for v in bits(rivals | 1 << z) if color[v] == color[z]]
        vstar = max(top, key=labeling.index)
        if z != vstar and canonical_code(child, mark=z) != canonical_code(child, mark=vstar):
            continue
        if code in seen:
            continue
        seen.add(code)
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
    q_indices(base)  # one batch; the members below are then cache hits
    solved = sorted(((q_index(g), g) for g in base), key=lambda rg: -rg[0].q)
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
    by more than `sep` plus both enclosure radii (the q_compare
    contract); the rest are winners. The margin is the gap between `top`
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
        elif top.q - res.q > sep + res.radius + top.radius:
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
