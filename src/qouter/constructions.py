"""Extremal candidate graphs: joins of path unions and the pendant-fan gadget.

Both theorems' candidates are K_1 v (union of paths): an optional fixed
head part, then as many full parts as fit, then the remainder (the
canonical decomposition). The paper's printed closed forms for the path
theorem miss the part-sum identity whenever t >= 2, so only the
canonical decomposition is built; a test pins where the two differ.
Whether a candidate avoids its pattern is read off its parts
(`join_is_f_free`) rather than searched for in the graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import recognition
from .errors import CapacityError, ConstructionError, ParameterError
from .graphs import Graph, MAX_VERTICES, disjoint_union, join_one, path


@dataclass(frozen=True)
class PathJoinSpec:
    """Multiset of path orders a_1 >= ... >= a_s >= 1 for K_1 v (U P_{a_i})."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(type(p) is not int for p in self.parts):  # a bool is no order
            raise ParameterError(f"path orders must be ints, got {self.parts}")
        cleaned = tuple(sorted((p for p in self.parts if p != 0), reverse=True))
        if any(p < 0 for p in cleaned):
            raise ParameterError(f"negative path order in {self.parts}")
        if not cleaned:
            raise ParameterError("empty path-join spec")
        if sum(cleaned) + 1 > MAX_VERTICES:
            raise CapacityError(f"order {sum(cleaned) + 1} exceeds {MAX_VERTICES}")
        object.__setattr__(self, "parts", cleaned)

    @property
    def order(self) -> int:
        return sum(self.parts) + 1


def path_join(spec) -> Graph:
    """K_1 v (P_{a_1} u ... u P_{a_s}); the join vertex gets the last index."""
    if not isinstance(spec, PathJoinSpec):
        spec = PathJoinSpec(tuple(spec))
    return join_one(disjoint_union([path(p) for p in spec.parts]))


def join_is_f_free(parts, pattern: recognition.ForbiddenPattern) -> bool:
    """Whether K_1 v (P_a for a in parts) avoids pattern, read off the parts.

    The paths are acyclic, so a C_ell runs through the hub and ell - 1
    consecutive vertices of one part. At most one P_ell passes the hub,
    joining end pieces of at most two parts; a piece longer than its
    part's residue a mod ell costs that part one P_ell of its own. So the
    most disjoint P_ell number sum(a // ell), plus one when the two largest
    residues (a missing one counts 0) add up to at least ell - 1.
    """
    ell = pattern.ell
    if pattern.kind == "cycle":
        return max(parts) < ell - 1
    top = sorted((a % ell for a in parts), reverse=True)[:2] + [0]
    return sum(a // ell for a in parts) + (top[0] + top[1] >= ell - 1) < pattern.t


def _join_candidate(n: int, head: tuple[int, ...], part: int,
                    pattern: recognition.ForbiddenPattern) -> tuple[Graph, int, int]:
    """K_1 v (P_h for h in head, alpha P_part, P_r), where alpha, r =
    divmod(n - 1 - sum(head), part), checked to avoid pattern. A path
    join is connected and outerplanar by construction."""
    if n > MAX_VERTICES:
        raise CapacityError(f"order {n} exceeds {MAX_VERTICES}")
    alpha, r = divmod(n - 1 - sum(head), part)
    spec = PathJoinSpec(head + (part,) * alpha + (r,))
    if not join_is_f_free(spec.parts, pattern):
        raise ConstructionError(f"constructed graph contains {pattern}")
    return path_join(spec), alpha, r


def cycle_extremal(n: int, ell: int) -> tuple[Graph, int, int]:
    """The candidate maximizer among connected outerplanar C_ell-free graphs:
    K_1 v (alpha P_{ell-2} u P_r)."""
    if any(type(k) is not int for k in (n, ell)):  # a bool is no order
        raise ParameterError(f"need int n and ell, got n={n!r}, ell={ell!r}")
    if not 3 <= ell <= n:
        raise ParameterError(f"need 3 <= ell <= n, got ell={ell}, n={n}")
    return _join_candidate(n, (), ell - 2, recognition.ForbiddenPattern.cycle(ell))


def path_extremal(n: int, t: int, ell: int) -> tuple[Graph, int, int]:
    """The candidate maximizer among connected outerplanar tP_ell-free graphs:
    K_1 v (P_{a_1} u alpha P_part u P_r), with a_1 = ceil((ell-2)/2) and
    part = floor((ell-2)/2) for t = 1, and a_1 = t*ell - ell - 1 and
    part = ell - 1 for t >= 2."""
    if any(type(k) is not int for k in (n, t, ell)):  # a bool is no order
        raise ParameterError(f"need int n, t and ell, got n={n!r}, t={t!r}, ell={ell!r}")
    if t == 1:
        if ell < 4:
            raise ParameterError("single-path pattern needs ell >= 4")
        a1 = (ell - 2 + 1) // 2  # ceil((ell-2)/2)
        part = (ell - 2) // 2
    elif t >= 2:
        if ell < 2:
            raise ParameterError("path union needs ell >= 2")
        a1 = t * ell - ell - 1
        part = ell - 1
    else:
        raise ParameterError(f"t must be >= 1, got {t}")
    if t * ell > n - 1:
        raise ParameterError(f"need t*ell <= n-1, got {t}*{ell} vs n={n}")
    return _join_candidate(n, (a1,), part, recognition.ForbiddenPattern.paths(t, ell))


def h_gadget(h: Graph, u: int, t: int, s: int) -> Graph:
    """Attach P_t and P_s to h, joining every attached vertex to u.

    Equivalently: identify u with the hub of K_1 v (P_t u P_s); s = 0
    attaches only P_t.
    """
    if t < 1 or s < 0:
        raise ParameterError(f"need t >= 1, s >= 0, got t={t}, s={s}")
    if not 0 <= u < h.n:
        raise ParameterError(f"vertex {u} not in graph of order {h.n}")
    if h.n + t + s > MAX_VERTICES:
        raise CapacityError(f"gadget order {h.n + t + s} exceeds {MAX_VERTICES}")
    g = h
    for block in (t, s):
        for i in range(block):
            mask = 1 << u
            if i > 0:
                mask |= 1 << (g.n - 1)
            g = g.with_new_vertex(mask)
    return g

