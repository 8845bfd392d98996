"""Canonical labeling for small graphs by pruned exhaustive relabeling.

Vertices are first partitioned by iterated degree refinement; the code is
the lexicographically least lower-triangular adjacency over all orderings
compatible with the partition. Interchangeable twin vertices are collapsed
during the search, which keeps highly symmetric graphs (stars, unions of
equal paths) tractable.
"""

from __future__ import annotations

from .graphs import Graph, bits


def _refine(g: Graph, mark: int | None, z: int = 0, rivals: int = 0) -> list[int] | None:
    """Stable color per vertex; marks isolate one vertex in its own class.

    Colors are indices into the sorted distinct keys, so they are
    isomorphism-invariant; `_search` places them in ascending order.
    Each round only splits classes and never reorders them, so once a
    vertex outranks z it does so in the final colors: refinement stops
    and returns None at the first round in which a vertex of the bitmask
    `rivals` has a larger color than z.
    """
    nbrs = [list(bits(row)) for row in g.adj]
    keys = [(v == mark, len(nv)) for v, nv in enumerate(nbrs)]
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


def _search(g: Graph, color: list[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Minimum row sequence and one labeling (position -> vertex) achieving it."""
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
    used = 0

    def rec(i: int, equal: bool) -> None:
        # `equal`: the current prefix matches best's prefix (vacuous while
        # best is unset), so row-vs-best pruning is sound at this node.
        nonlocal best, best_perm, used
        if i == n:
            if best is None or rows < best:
                best = rows.copy()
                best_perm = perm.copy()
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
            if any(row == r2 and _twins(g, v, v2) for r2, v2 in pruned):
                continue
            pruned.append((row, v))
        for row, v in pruned:
            if best is None:
                child_equal = True
            elif equal:
                if row > best[i]:
                    break
                child_equal = row == best[i]
            else:
                child_equal = False
            perm.append(v)
            rows.append(row)
            used |= 1 << v
            rec(i + 1, child_equal)
            used &= ~(1 << v)
            rows.pop()
            perm.pop()

    rec(0, True)
    assert best is not None and best_perm is not None
    return tuple(best), tuple(best_perm)


def canonical_labeling(
    g: Graph, mark: int | None = None
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(row sequence, labeling) of the canonical form; labeling[i] is the
    vertex placed at position i."""
    return _search(g, _refine(g, mark))


def canonical_code(g: Graph, mark: int | None = None) -> bytes:
    """Isomorphism-invariant byte code; equal codes iff isomorphic.

    With `mark`, codes of (g, a) and (g, b) agree iff some automorphism
    of g maps a to b.
    """
    rows, _ = canonical_labeling(g, mark)
    return bytes([g.n]) + b"".join(r.to_bytes(8, "big") for r in rows)


def is_transposition_automorphism(g: Graph, u: int, v: int) -> bool:
    """True iff swapping u and v (fixing the rest) preserves the edge set."""
    if u == v:
        return True
    perm = list(range(g.n))
    perm[u], perm[v] = v, u
    return g.permuted(perm).adj == g.adj
