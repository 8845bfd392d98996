"""Independent brute-force oracles used only by the tests.

These deliberately take different algorithmic routes than the package:
eigenvalues via dense symmetric solves, minors via edge contraction
recursion, cycles via subset Hamiltonicity, path packings via a
subset DP. Memo keys are raw labeled adjacency, so nothing here depends
on the package's canonical labeling. The exceptions are the package's
earlier algorithms, kept as references for the paths that replaced
them: `perron_oracle`, `argmax_oracle` and `children_oracle`.
"""

from __future__ import annotations

from itertools import combinations, permutations

import numpy as np

from qouter.canon import _refine, canonical_code, canonical_labeling
from qouter.enumeration import _non_cut, enumerate_class
from qouter.errors import CapacityError
from qouter.graphs import Graph, bits, from_edges
from qouter.recognition import is_outerplanar
from qouter.spectral import SpectralResult, q_index


def q_matrix(g: Graph) -> np.ndarray:
    """Q(g) = D(g) + A(g), filled entry by entry."""
    a = np.zeros((g.n, g.n))
    for u in range(g.n):
        for v in bits(g.adj[u]):
            a[u, v] = 1.0
    return a + np.diag(a.sum(axis=1))


def perron_oracle(g: Graph) -> SpectralResult:
    """The Q-index one component at a time: eigh of each component's own
    Q matrix, the sign-fixed top eigenvector, and its Collatz-Wielandt
    radius; the first component, by least vertex, with the largest q."""
    comps = g.components()
    best = None
    for mask in comps:
        members = list(bits(mask))
        mat = q_matrix(g if len(comps) == 1 else g.induced(members))
        values, vectors = np.linalg.eigh(mat)
        q = float(values[-1])
        x = vectors[:, -1]
        if x.sum() < 0:
            x = -x
        if x.min() <= 0:
            radius = float("inf")
        else:
            ratios = (mat @ x) / x
            radius = max(q - float(ratios.min()), float(ratios.max()) - q)
        if best is None or q > best[0]:
            best = (q, x, radius, members)
    q, x, radius, members = best
    vector = np.zeros(g.n)
    vector[members] = x
    return SpectralResult(q, vector, radius, connected=len(comps) == 1)


def eig_q(g: Graph) -> float:
    """Largest Q-eigenvalue via a full symmetric eigensolve."""
    return float(np.linalg.eigvalsh(q_matrix(g))[-1])


def q_root_bisection(coeffs, lo, hi, tol=1e-12) -> float:
    """Largest root of a polynomial (coeff high->low) by plain bisection."""

    def poly(x):
        acc = 0.0
        for c in coeffs:
            acc = acc * x + c
        return acc

    flo = poly(lo)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if poly(mid) * flo > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


# -- subgraph / minor oracles -----------------------------------------


def subgraph_contains(g: Graph, h: Graph) -> bool:
    """Injective embedding of h into g mapping edges of h to edges of g."""
    if h.n > g.n or h.m > g.m:
        return False
    hdeg = [h.degree(v) for v in range(h.n)]
    order = sorted(range(h.n), key=lambda v: -hdeg[v])

    def extend(i, mapping, used):
        if i == len(order):
            return True
        hv = order[i]
        for gv in range(g.n):
            if (used >> gv) & 1 or g.degree(gv) < hdeg[hv]:
                continue
            ok = True
            for hu in bits(h.adj[hv]):
                if hu in mapping and not g.has_edge(mapping[hu], gv):
                    ok = False
                    break
            if ok:
                mapping[hv] = gv
                if extend(i + 1, mapping, used | (1 << gv)):
                    return True
                del mapping[hv]
        return False

    return extend(0, {}, 0)


def _contract(g: Graph, u: int, v: int) -> Graph:
    """Contract edge uv (merge v into u), dropping loops and multiedges."""
    edges = set()
    for a, b in g.edges():
        a2 = u if a == v else a
        b2 = u if b == v else b
        if a2 != b2:
            edges.add((min(a2, b2), max(a2, b2)))
    keep = [x for x in range(g.n) if x != v]
    index = {x: i for i, x in enumerate(keep)}
    return from_edges(len(keep), [(index[a], index[b]) for a, b in edges])


_minor_memo: dict[tuple, bool] = {}


def minor_by_contraction(g: Graph, h: Graph) -> bool:
    """h is a minor of g iff h embeds as a subgraph of some contraction of g."""
    key = (g.n, g.adj, h.n, h.adj)
    cached = _minor_memo.get(key)
    if cached is not None:
        return cached
    if h.n > g.n or h.m > g.m:
        result = False
    elif subgraph_contains(g, h):
        result = True
    else:
        result = any(
            minor_by_contraction(_contract(g, u, v), h) for u, v in g.edges()
        )
    _minor_memo[key] = result
    return result


def outerplanar_oracle(g: Graph) -> bool:
    k4 = from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    k23 = from_edges(5, [(a, b) for a in range(2) for b in range(2, 5)])
    return not minor_by_contraction(g, k4) and not minor_by_contraction(g, k23)


# -- cycle / path-packing oracles -------------------------------------


def cycle_oracle(g: Graph, ell: int) -> bool:
    """Exact-ell cycle via subset enumeration plus Hamiltonicity check."""
    if ell > g.n:
        return False
    for subset in combinations(range(g.n), ell):
        first = subset[0]
        rest = subset[1:]
        for perm in permutations(rest):
            if ell > 3 and perm[0] > perm[-1]:
                continue  # direction dedup
            seq = (first,) + perm
            if all(g.has_edge(seq[i], seq[i + 1]) for i in range(ell - 1)) and g.has_edge(
                seq[-1], first
            ):
                return True
    return False


def _has_ham_path(g: Graph, subset) -> bool:
    subset = list(subset)
    k = len(subset)
    if k == 1:
        return True
    for start_idx in range(k):
        stack = [(subset[start_idx], 1 << start_idx)]
        # DFS over (current vertex, used index mask)
        seen = set()
        while stack:
            cur, used = stack.pop()
            if used.bit_count() == k:
                return True
            if (cur, used) in seen:
                continue
            seen.add((cur, used))
            for i, w in enumerate(subset):
                if not (used >> i) & 1 and g.has_edge(cur, w):
                    stack.append((w, used | (1 << i)))
    return False


def path_pack_oracle(g: Graph, t: int, ell: int) -> bool:
    """t disjoint P_ell via listing path-supporting subsets + exact cover DP."""
    if t * ell > g.n:
        return False
    supports = [
        sum(1 << v for v in subset)
        for subset in combinations(range(g.n), ell)
        if _has_ham_path(g, subset)
    ]

    memo: dict[tuple[int, int], bool] = {}

    def solve(remaining, used):
        if remaining == 0:
            return True
        key = (remaining, used)
        if key in memo:
            return memo[key]
        result = any(
            not (mask & used) and solve(remaining - 1, used | mask)
            for mask in supports
        )
        memo[key] = result
        return result

    return solve(t, 0)


def all_graphs_upto_iso(n: int):
    """Every graph on n vertices up to isomorphism, by augment-and-dedup."""
    level = [Graph(1, (0,))]
    for _ in range(n - 1):
        seen = {}
        for g in level:
            for mask in range(1 << g.n):
                child = g.with_new_vertex(mask)
                seen.setdefault(canonical_code(child), child)
        level = list(seen.values())
    return level


# -- argmax oracle ----------------------------------------------------


def argmax_oracle(cls, sep, solve=q_index):
    """extremal_argmax the long way: test the pattern on every member,
    solve each survivor with `solve`, then take the first maximum in
    enumeration order. Returns (winner codes, q, margin)."""
    solved = [(solve(g), g) for g in enumerate_class(cls)]
    if not solved:
        raise CapacityError(f"empty class {cls}")
    top = max((res for res, _ in solved), key=lambda res: res.q)
    winners, excluded = [], []
    for res, g in solved:
        if top.q - res.q > sep + res.radius + top.radius:
            excluded.append(res.q)
        else:
            winners.append(g)
    margin = top.q - max(excluded) if excluded else float("inf")
    return sorted(canonical_code(g) for g in winners), top.q, margin


def children_oracle(parent: Graph, connected: bool, outerplanar: bool):
    """One canonical-augmentation step as first written: every child is
    refined in full, tested from scratch for outerplanarity, and refined
    again inside `canonical_labeling`."""
    seen = set()
    z = parent.n
    for mask in range(1 if connected else 0, 1 << parent.n):
        if outerplanar and mask.bit_count() > 2:
            continue
        child = parent.with_new_vertex(mask)
        adj = child.adj
        color = _refine(child, None)
        # z is eligible, so only eligible vertices of colour >= color[z]
        # can reject the child or be v*.
        top = [
            v for v in range(child.n)
            if color[v] >= color[z]
            and (not outerplanar or adj[v].bit_count() <= 2)
            and (not connected or _non_cut(adj, v))
        ]
        if any(color[v] > color[z] for v in top):
            continue
        if outerplanar and not is_outerplanar(child):
            continue
        code, labeling = canonical_labeling(child)
        vstar = max(top, key=labeling.index)
        if z != vstar and canonical_code(child, mark=z) != canonical_code(child, mark=vstar):
            continue
        if code in seen:
            continue
        seen.add(code)
        yield child
