"""Canonical labeling and automorphism generators by pruned exhaustive relabeling.

Vertices are first partitioned by iterated degree refinement; the code is
the lexicographically least lower-triangular adjacency over all orderings
compatible with the partition. Twins, the vertex pairs whose swap is an
automorphism, are found once before the search, which places each twin
class in ascending order only; this keeps highly symmetric graphs (stars,
unions of equal paths) tractable. The search returns generators of the
automorphism group, as permutations: the swap of each vertex with its
least twin, and the map between two leaves with equal rows. Every least
leaf is a chain of twin swaps away from a visited one, so these generate
the group.
"""

from __future__ import annotations

from .graphs import Graph, bits


def _refine(g: Graph, z: int = 0, rivals: int = 0,
            nbrs: list[list[int]] | None = None) -> list[int] | None:
    """Stable color per vertex, starting from degree.

    Colors are indices into the sorted distinct keys, so they are
    isomorphism-invariant; `_search` places them in ascending order.
    Each round only splits classes and never reorders them, so a vertex
    above or below z stays there in the final colors. Given the bitmask
    `rivals`, refinement stops at the first round that decides z against
    them: None if a rival has a larger color than z, that round's colors
    (perhaps not yet stable) if every rival has a smaller one. So stable
    colors come back only while a rival shares z's color. `nbrs`, g's
    neighbour lists, is read off g's rows when not given.
    """
    if nbrs is None:
        nbrs = [list(bits(row)) for row in g.adj]
    keys = [len(nv) for nv in nbrs]
    while True:
        order = {k: i for i, k in enumerate(sorted(set(keys)))}
        color = [order[k] for k in keys]
        if rivals:
            top = max(color[v] for v in bits(rivals))
            if top != color[z]:
                return None if top > color[z] else color
        keys = [
            (color[v], tuple(sorted([color[u] for u in nv])))
            for v, nv in enumerate(nbrs)
        ]
        if len(set(keys)) == len(order):
            return color


def _search(g: Graph, color: list[int]) -> tuple[
        tuple[int, ...], tuple[int, ...], list[tuple[int, ...]]]:
    """Minimum row sequence, one labeling (position -> vertex) achieving
    it, and generators of the automorphism group (sigma[v] is the image
    of v). `color` must be automorphism-invariant, as every `_refine`
    output is: then twins share a colour, and at every node an unused
    pair of twins shares a row, so a vertex is tried only once its lower
    twins (`lower[v]`) are placed."""
    n = g.n
    by_color: dict[int, list[int]] = {}
    for v in range(n):
        by_color.setdefault(color[v], []).append(v)
    pos_color = sorted(color)
    lower = [0] * n
    generators: list[tuple[int, ...]] = []  # swap of each vertex with its least twin
    for members in by_color.values():
        for k, v in enumerate(members):
            twins = [u for u in members[:k] if is_transposition_automorphism(g, u, v)]
            if twins:
                lower[v] = sum(1 << u for u in twins)
                sigma = list(range(n))
                sigma[twins[0]], sigma[v] = v, twins[0]
                generators.append(tuple(sigma))

    best: list[int] | None = None
    best_perm: list[int] | None = None
    perm: list[int] = []
    rows: list[int] = []
    used = 0

    def rec(i: int, equal: bool) -> None:
        # `equal`: the current prefix matches best's prefix (vacuous while
        # best is unset), so row-vs-best pruning is sound at this node.
        nonlocal best, best_perm, used
        if i == n:
            if best is None or rows < best:
                best, best_perm = rows.copy(), perm.copy()
            elif rows == best:  # best_perm[j] -> perm[j] is an automorphism
                sigma = [0] * n
                for a, b in zip(best_perm, perm):
                    sigma[a] = b
                generators.append(tuple(sigma))
            return
        entries = []
        for v in by_color[pos_color[i]]:
            if used >> v & 1 or lower[v] & ~used:
                continue
            av = g.adj[v]
            row = 0
            for j in range(i):
                if (av >> perm[j]) & 1:
                    row |= 1 << j
            entries.append((row, v))
        entries.sort()
        for row, v in entries:
            if equal and best is not None and row > best[i]:
                break
            child_equal = best is None or (equal and row == best[i])
            perm.append(v)
            rows.append(row)
            used |= 1 << v
            rec(i + 1, child_equal)
            used &= ~(1 << v)
            rows.pop()
            perm.pop()

    rec(0, True)
    assert best is not None and best_perm is not None
    return tuple(best), tuple(best_perm), generators


def canonical_labeling(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(row sequence, labeling) of the canonical form; labeling[i] is the
    vertex placed at position i."""
    return _search(g, _refine(g))[:2]


def canonical_code(g: Graph) -> bytes:
    """Isomorphism-invariant byte code; equal codes iff isomorphic."""
    rows, _ = canonical_labeling(g)
    return bytes([g.n]) + b"".join(r.to_bytes(8, "big") for r in rows)


def is_transposition_automorphism(g: Graph, u: int, v: int) -> bool:
    """True iff swapping u and v (fixing the rest) preserves the edge set:
    exactly when u and v are twins, which every vertex is of itself."""
    return (g.adj[u] & ~(1 << v)) == (g.adj[v] & ~(1 << u))
