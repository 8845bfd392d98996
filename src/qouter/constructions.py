"""Extremal candidate graphs: joins of path unions and the pendant-fan gadget.

Both theorems' candidates are path joins K_1 v (union of paths), each
given by its tuple of parts, which `path_join` alone checks: an optional
fixed head part, then as many full parts as fit, then the remainder (the
canonical decomposition). The paper's printed closed forms for the path
theorem miss the part-sum identity whenever t >= 2, so only the
canonical decomposition is built; a test pins where the two differ.
Whether a candidate avoids its pattern is read off its parts
(`join_is_f_free`) rather than searched for in the graph. The pattern
checks its own t and ell; `covers` alone states the orders each theorem
holds at, for the candidates and for the harness's theorem cells.
"""

from __future__ import annotations

from . import recognition
from .errors import CapacityError, ConstructionError, ParameterError
from .graphs import Graph, MAX_VERTICES, disjoint_union, join_one, path


def path_join(parts) -> Graph:
    """K_1 v (P_a for a in parts), hub last, paths longest first and zeros
    dropped; the one check of a join's parts: ints, >= 0, not all 0, order <= 64."""
    parts = tuple(parts)
    if any(type(p) is not int for p in parts):  # a bool is no order
        raise ParameterError(f"path orders must be ints, got {parts}")
    if any(p < 0 for p in parts):
        raise ParameterError(f"negative path order in {parts}")
    parts = sorted((p for p in parts if p), reverse=True)
    if not parts:
        raise ParameterError("empty path-join spec")
    if sum(parts) + 1 > MAX_VERTICES:
        raise CapacityError(f"order {sum(parts) + 1} exceeds {MAX_VERTICES}")
    return join_one(disjoint_union([path(p) for p in parts]))


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


def covers(n: int, pattern: recognition.ForbiddenPattern) -> bool:
    """Whether the paper's theorem for pattern holds at order n: ell <= n
    for C_ell, and t >= 2 or ell >= 4, with t*ell <= n - 1, for tP_ell."""
    if pattern.kind == "cycle":
        return pattern.ell <= n
    return (pattern.t >= 2 or pattern.ell >= 4) and pattern.t * pattern.ell <= n - 1


def _join_candidate(n: int, head: tuple[int, ...], part: int,
                    pattern: recognition.ForbiddenPattern) -> tuple[Graph, int, int]:
    """K_1 v (P_h for h in head, alpha P_part, P_r), where alpha, r =
    divmod(n - 1 - sum(head), part), checked to avoid pattern, for an int
    n that `covers` pattern. A path join is connected and outerplanar by
    construction."""
    if type(n) is not int or not covers(n, pattern):  # a bool is no order
        raise ParameterError(f"the {pattern} theorem does not cover order {n!r}")
    if n > MAX_VERTICES:
        raise CapacityError(f"order {n} exceeds {MAX_VERTICES}")
    alpha, r = divmod(n - 1 - sum(head), part)
    parts = head + (part,) * alpha + (r,)  # a zero r adds nothing to the sums
    if not join_is_f_free(parts, pattern):
        raise ConstructionError(f"constructed graph contains {pattern}")
    return path_join(parts), alpha, r


def cycle_extremal(n: int, ell: int) -> tuple[Graph, int, int]:
    """The candidate maximizer among connected outerplanar C_ell-free graphs:
    K_1 v (alpha P_{ell-2} u P_r)."""
    pattern = recognition.ForbiddenPattern.cycle(ell)
    return _join_candidate(n, (), ell - 2, pattern)


def path_extremal(n: int, t: int, ell: int) -> tuple[Graph, int, int]:
    """The candidate maximizer among connected outerplanar tP_ell-free graphs:
    K_1 v (P_{a_1} u alpha P_part u P_r), with a_1 = ceil((ell-2)/2) and
    part = floor((ell-2)/2) for t = 1, and a_1 = t*ell - ell - 1 and
    part = ell - 1 for t >= 2."""
    pattern = recognition.ForbiddenPattern.paths(t, ell)
    a1, part = ((ell - 1) // 2, (ell - 2) // 2) if t == 1 else (t * ell - ell - 1, ell - 1)
    return _join_candidate(n, (a1,), part, pattern)


def h_gadget(h: Graph, u: int, t: int, s: int) -> Graph:
    """Attach P_t and P_s to h, joining every attached vertex to u.

    Equivalently: identify u with the hub of K_1 v (P_t u P_s); s = 0
    attaches only P_t.
    """
    if any(type(x) is not int for x in (u, t, s)):  # a bool is no vertex or order
        raise ParameterError(f"need int u, t and s, got u={u!r}, t={t!r}, s={s!r}")
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

