"""Canonical labeling and automorphism orbits by pruned exhaustive relabeling.

Vertices are first partitioned by iterated degree refinement; the code is
the lexicographically least lower-triangular adjacency over all orderings
compatible with the partition. Interchangeable twin vertices are collapsed
during the search, which keeps highly symmetric graphs (stars, unions of
equal paths) tractable. The same search gives the automorphism orbits:
swapping two twins is an automorphism, and so is the map between two
leaves with equal rows; every least leaf is a chain of twin swaps away
from a visited one, so these generate the automorphism group.
"""

from __future__ import annotations

from .graphs import Graph, bits


def _refine(g: Graph, z: int = 0, rivals: int = 0) -> list[int] | None:
    """Stable color per vertex, starting from degree.

    Colors are indices into the sorted distinct keys, so they are
    isomorphism-invariant; `_search` places them in ascending order.
    Each round only splits classes and never reorders them, so once a
    vertex outranks z it does so in the final colors: refinement stops
    and returns None at the first round in which a vertex of the bitmask
    `rivals` has a larger color than z.
    """
    nbrs = [list(bits(row)) for row in g.adj]
    keys = [len(nv) for nv in nbrs]
    while True:
        order = {k: i for i, k in enumerate(sorted(set(keys)))}
        color = [order[k] for k in keys]
        if rivals and any(color[v] > color[z] for v in bits(rivals)):
            return None
        keys = [
            (color[v], tuple(sorted([color[u] for u in nv])))
            for v, nv in enumerate(nbrs)
        ]
        if len(set(keys)) == len(order):
            return color


def _twins(g: Graph, u: int, v: int) -> bool:
    return (g.adj[u] & ~(1 << v)) == (g.adj[v] & ~(1 << u))


def _search(g: Graph, color: list[int]) -> tuple[tuple[int, ...], tuple[int, ...], list[int]]:
    """Minimum row sequence, one labeling (position -> vertex) achieving
    it, and each vertex's automorphism orbit, named by one of its members."""
    n = g.n
    by_color: dict[int, list[int]] = {}
    for v in range(n):
        by_color.setdefault(color[v], []).append(v)
    pos_color: list[int] = []
    for c in sorted(by_color):
        pos_color.extend([c] * len(by_color[c]))

    best: list[int] | None = None
    best_perm: list[int] | None = None
    perm: list[int] = []
    rows: list[int] = []
    orbit = list(range(n))
    used = 0

    def rec(i: int, equal: bool) -> None:
        # `equal`: the current prefix matches best's prefix (vacuous while
        # best is unset), so row-vs-best pruning is sound at this node.
        nonlocal best, best_perm, used
        if i == n:
            if best is None or rows < best:
                best, best_perm = rows.copy(), perm.copy()
            elif rows == best:  # best_perm[j] -> perm[j] is an automorphism
                for a, b in zip(best_perm, perm):
                    if orbit[a] != orbit[b]:
                        orbit[:] = [orbit[a] if o == orbit[b] else o for o in orbit]
            return
        entries = []
        for v in by_color[pos_color[i]]:
            if (used >> v) & 1:
                continue
            av = g.adj[v]
            row = 0
            for j in range(i):
                if (av >> perm[j]) & 1:
                    row |= 1 << j
            entries.append((row, v))
        entries.sort()
        pruned: list[tuple[int, int]] = []
        for row, v in entries:
            twin = next((v2 for r2, v2 in pruned if row == r2 and _twins(g, v, v2)), v)
            if twin == v:
                pruned.append((row, v))
            elif orbit[twin] != orbit[v]:  # swapping twins is an automorphism
                orbit[:] = [orbit[twin] if o == orbit[v] else o for o in orbit]
        for row, v in pruned:
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
    return tuple(best), tuple(best_perm), orbit


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
    exactly when u and v are twins."""
    return u == v or _twins(g, u, v)
