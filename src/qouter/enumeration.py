"""Isomorph-free exhaustive generation and extremal argmax.

Graphs of order n are produced by extending every (n-1)-vertex graph of
the class with one new vertex. A child is kept only if the new vertex is
in the automorphism orbit of an invariantly chosen deletion vertex
(canonical-augmentation rejection); children arising from distinct
extensions of the same parent are deduplicated per parent, so memory
stays proportional to the frontier. Forbidden-subgraph freeness is not
hereditary upward and is therefore applied as a final filter only;
outerplanarity (subgraph-closed) prunes during generation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

from . import recognition
from .canon import canonical_code, canonical_labeling
from .errors import CapacityError
from .graphs import Graph
from .spectral import q_index

EXHAUSTIVE_CAP = 10


@dataclass(frozen=True)
class EnumerationClass:
    n: int
    pattern: recognition.ForbiddenPattern | None = None
    require_connected: bool = True


def _children(parent: Graph, hereditary_ok: Callable[[Graph], bool],
              require_connected: bool) -> Iterator[Graph]:
    seen: set[bytes] = set()
    start = 1 if require_connected else 0
    for mask in range(start, 1 << parent.n):
        child = parent.with_new_vertex(mask)
        if not hereditary_ok(child):
            continue
        code, labeling = canonical_labeling(child)
        if require_connected:
            eligible = [
                v for v in range(child.n)
                if child.delete_vertex(v).is_connected()
            ]
        else:
            eligible = list(range(child.n))
        pos = {v: i for i, v in enumerate(labeling)}
        vstar = max(eligible, key=pos.__getitem__)
        z = child.n - 1
        if z != vstar and canonical_code(child, mark=z) != canonical_code(child, mark=vstar):
            continue
        key = bytes([child.n]) + b"".join(r.to_bytes(8, "big") for r in code)
        if key in seen:
            continue
        seen.add(key)
        yield child


def _generate(n: int, hereditary_ok, require_connected: bool) -> tuple[Graph, ...]:
    if n == 1:
        return (Graph(1, (0,)),)
    out: list[Graph] = []
    for parent in _generate(n - 1, hereditary_ok, require_connected):
        out.extend(_children(parent, hereditary_ok, require_connected))
    return tuple(out)


@lru_cache(maxsize=None)
def connected_outerplanar(n: int) -> tuple[Graph, ...]:
    """All connected outerplanar graphs of order n, one per isomorphism class."""
    if n > EXHAUSTIVE_CAP:
        raise CapacityError(f"exhaustive enumeration capped at n = {EXHAUSTIVE_CAP}")
    return _generate(n, recognition.is_outerplanar, True)


@lru_cache(maxsize=None)
def outerplanar_graphs(n: int) -> tuple[Graph, ...]:
    """All (possibly disconnected) outerplanar graphs of order n, up to iso."""
    if n > EXHAUSTIVE_CAP:
        raise CapacityError(f"exhaustive enumeration capped at n = {EXHAUSTIVE_CAP}")
    return _generate(n, recognition.is_outerplanar, False)


@lru_cache(maxsize=None)
def connected_graphs(n: int) -> tuple[Graph, ...]:
    """All connected graphs of order n, up to isomorphism."""
    if n > EXHAUSTIVE_CAP:
        raise CapacityError(f"exhaustive enumeration capped at n = {EXHAUSTIVE_CAP}")
    return _generate(n, lambda g: True, True)


def enumerate_class(cls: EnumerationClass) -> Iterator[Graph]:
    """Stream the class members, pairwise non-isomorphic."""
    if cls.n > EXHAUSTIVE_CAP:
        raise CapacityError(f"exhaustive enumeration capped at n = {EXHAUSTIVE_CAP}")
    base = connected_outerplanar(cls.n) if cls.require_connected else outerplanar_graphs(cls.n)
    for g in base:
        if cls.pattern is None or recognition.is_f_free(g, cls.pattern):
            yield g


@dataclass(frozen=True)
class ArgmaxResult:
    graphs: tuple[Graph, ...]
    q: float
    margin: float

    @property
    def unique(self) -> bool:
        return len(self.graphs) == 1 and self.margin > 0


def extremal_argmax(cls: EnumerationClass, sep: float = 1e-9) -> ArgmaxResult:
    """All Q-index maximizers of the class, from one solve per member.

    A member is excluded only when the maximum beats it by more than
    `sep` plus both enclosure radii (the q_compare contract); the rest
    are winners. The margin is the gap between the maximum and the best
    excluded member (inf when nothing is excluded).
    """
    if sep < 0:
        raise ValueError("sep must be nonnegative")
    members = list(enumerate_class(cls))
    if not members:
        raise CapacityError(f"empty class {cls}")
    solved = [(q_index(g), g) for g in members]
    top = max((res for res, _ in solved), key=lambda res: res.q)
    winners, excluded = [], []
    for res, g in solved:
        if top.q - res.q > sep + res.radius + top.radius:
            excluded.append(res.q)
        else:
            winners.append(g)
    margin = top.q - max(excluded) if excluded else float("inf")
    return ArgmaxResult(tuple(sorted(winners, key=canonical_code)), top.q, margin)
