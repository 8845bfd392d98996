"""Independent brute-force oracles used only by the tests.

These deliberately take different algorithmic routes than the package:
eigenvalues via dense symmetric solves, minors via edge contraction
recursion, cycles via subset Hamiltonicity, path packings via a
subset DP, automorphisms via networkx VF2, the eta bound and Rayleigh
quotients (entry by entry of Q) in exact fractions. Memo keys are raw
labeled adjacency, so nothing here depends on the package's canonical
labeling. The exceptions are the package's earlier algorithms, kept as
references for the paths that replaced them: `perron_oracle`,
`argmax_oracle`, `children_oracle` and `outerplanar_minor_oracle`; and
the guarded moves (`add_edge_move`, ..., `path_shift`), which state each
rewrite lemma's clauses at one vertex tuple and are the reference that
the generators of `transforms.MOVES` are held to.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial

import networkx as nx
import numpy as np
from networkx.algorithms.isomorphism import GraphMatcher

from qouter import transforms
from qouter.canon import _refine, canonical_code, canonical_labeling
from qouter.constructions import h_gadget
from qouter.enumeration import enumerate_class
from qouter.errors import CapacityError, EdgeStateError, EtaUndefinedError
from qouter.graphs import Graph, bits, from_edges
from qouter.recognition import is_outerplanar, neighborhood_is_paths
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
    return SpectralResult(q, vector, radius)


def eig_q(g: Graph) -> float:
    """Largest Q-eigenvalue via a full symmetric eigensolve."""
    return float(np.linalg.eigvalsh(q_matrix(g))[-1])


def rayleigh_quotient(g: Graph, x) -> Fraction:
    """x'Q(g)x / x'x as an exact fraction, entry by entry of Q(g): a lower
    bound on q(g) for any nonzero real vector x (floats converted exactly)."""
    x = [Fraction(v) for v in x]
    quadratic = sum(g.degree(i) * x[i] * x[i] + sum(x[i] * x[j] for j in bits(g.adj[i]))
                    for i in range(g.n))
    return quadratic / sum(v * v for v in x)


def eta_exact(g: Graph, u: int) -> Fraction:
    """d(u) + (sum of neighbour degrees)/d(u), an upper bound on q(g), as
    an exact fraction: the reference that `eta_max` rounds."""
    d = g.degree(u)
    if d == 0:
        raise EtaUndefinedError(f"vertex {u} is isolated")
    total = sum(g.degree(v) for v in bits(g.adj[u]))
    return Fraction(d * d + total, d)


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


def _has_k4_minor(g: Graph) -> bool:
    """Delete degree-<=1 vertices and smooth degree-2 ones; a nonempty
    remainder has minimum degree >= 3, hence a K_4 subdivision."""
    adj = {v: set(bits(g.adj[v])) for v in range(g.n)}
    queue = [v for v in adj if len(adj[v]) <= 2]
    while queue:
        v = queue.pop()
        if v not in adj or len(adj[v]) > 2:
            continue
        nbrs = list(adj[v])
        for u in nbrs:
            adj[u].discard(v)
        del adj[v]
        if len(nbrs) == 2:
            a, b = nbrs
            if b not in adj[a]:
                adj[a].add(b)
                adj[b].add(a)
        for u in nbrs:
            if len(adj[u]) <= 2:
                queue.append(u)
    return bool(adj)


def _three_disjoint_paths(g: Graph, s: int, t: int) -> bool:
    """>= 3 internally vertex-disjoint s-t paths avoiding a direct st edge."""
    # unit-capacity flow on the vertex-split graph; 3 augmentations suffice
    n = g.n
    # nodes: 2v = v_in, 2v+1 = v_out
    res: list[dict[int, int]] = [{} for _ in range(2 * n)]
    for v in range(n):
        res[2 * v][2 * v + 1] = 1 if v not in (s, t) else 3
    for u in range(n):
        for v in bits(g.adj[u]):
            if {u, v} == {s, t}:
                continue
            res[2 * u + 1][2 * v] = 1
    source, sink = 2 * s + 1, 2 * t
    for _ in range(3):
        # BFS for an augmenting path in the residual graph
        prev = {source: source}
        frontier = [source]
        found = False
        while frontier and not found:
            nxt = []
            for a in frontier:
                for y, c in res[a].items():
                    if c > 0 and y not in prev:
                        prev[y] = a
                        if y == sink:
                            found = True
                            break
                        nxt.append(y)
                if found:
                    break
            frontier = nxt
        if not found:
            return False
        y = sink
        while y != source:
            x = prev[y]
            res[x][y] -= 1
            res[y][x] = res[y].get(x, 0) + 1
            y = x
    return True


def _has_k23_minor(g: Graph) -> bool:
    """Some pair u, v of degree >= 3 has three internally disjoint u-v
    paths of length >= 2 (Menger)."""
    if g.n < 5:
        return False
    degs = [g.adj[v].bit_count() for v in range(g.n)]
    hubs = [v for v in range(g.n) if degs[v] >= 3]
    for i, u in enumerate(hubs):
        for v in hubs[i + 1 :]:
            if g.has_edge(u, v) and (degs[u] < 4 or degs[v] < 4):
                continue
            if _three_disjoint_paths(g, u, v):
                return True
    return False


def outerplanar_minor_oracle(g: Graph) -> bool:
    """Outerplanarity as first written: per component, an edge-count
    bound, then a K_4 reduction and a K_{2,3} flow search (both patterns
    have maximum degree 3, so minors and topological minors agree)."""
    for comp in g.components():
        sub = g.induced(bits(comp))
        if sub.n <= 3:
            continue
        if sub.m > 2 * sub.n - 3:
            return False
        if _has_k4_minor(sub) or _has_k23_minor(sub):
            return False
    return True


# -- cycle / path-packing oracles -------------------------------------


@lru_cache(maxsize=None)
def _cycle_lengths(g: Graph) -> frozenset[int]:
    """Every cycle length of g, by Held-Karp dynamic programming over
    vertex subsets: ends[S] has v iff a path from min(S) to v covers
    exactly S, and S spans a cycle iff |S| >= 3 and an end is next to
    min(S)."""
    ends = [0] * (1 << g.n)
    for v in range(g.n):
        ends[1 << v] = 1 << v
    lengths = set()
    for s in range(1, 1 << g.n):  # every subset of s comes before s
        low = (s & -s).bit_length() - 1
        if s.bit_count() >= 3 and ends[s] & g.adj[low]:
            lengths.add(s.bit_count())
        for v in bits(ends[s]):
            for w in bits(g.adj[v] & ~s & ~((2 << low) - 1)):
                ends[s | 1 << w] |= 1 << w
    return frozenset(lengths)


def cycle_oracle(g: Graph, ell: int) -> bool:
    """Exact-ell cycle via subset Hamiltonicity (`_cycle_lengths`)."""
    return ell in _cycle_lengths(g)


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


def _nx_graph(g: Graph, mark: int | None = None) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from((v, {"mark": v == mark}) for v in range(g.n))
    h.add_edges_from(g.edges())
    return h


def automorphic(g: Graph, a: int, b: int) -> bool:
    """Whether some automorphism of g maps a to b: networkx VF2 between
    two copies of g, a marked in the first and b in the second."""
    return GraphMatcher(_nx_graph(g, a), _nx_graph(g, b),
                        node_match=lambda x, y: x["mark"] == y["mark"]).is_isomorphic()


@lru_cache(maxsize=None)
def automorphisms(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Every automorphism of g, as networkx VF2 lists them (sigma[v] is
    the image of v)."""
    h = _nx_graph(g)
    return tuple(tuple(sigma[v] for v in range(g.n))
                 for sigma in GraphMatcher(h, h).isomorphisms_iter())


def automorphism_oracle(g: Graph) -> tuple[set[frozenset[int]], int]:
    """The automorphism orbits of g and the order of its group, from
    every automorphism that networkx VF2 lists."""
    orbits = {v: {v} for v in range(g.n)}
    for sigma in automorphisms(g):
        for v, w in enumerate(sigma):
            orbits[v].add(w)
    return {frozenset(orbit) for orbit in orbits.values()}, len(automorphisms(g))


def least_of_mask_orbits(g: Graph, masks) -> list[int]:
    """The masks, in their order, that are the least of their orbit under
    every automorphism of g: one per orbit."""
    return [m for m in masks
            if all(sum(1 << sigma[v] for v in range(g.n) if m >> v & 1) >= m
                   for sigma in automorphisms(g))]


def children_oracle(parent: Graph, connected: bool, outerplanar: bool):
    """One canonical-augmentation step as first written: every child is
    refined in full, tested from scratch for outerplanarity, and refined
    again inside `canonical_labeling`; z's orbit is tested by `automorphic`."""
    seen = set()
    z = parent.n
    for mask in range(1 if connected else 0, 1 << parent.n):
        if outerplanar and mask.bit_count() > 2:
            continue
        child = parent.with_new_vertex(mask)
        color = _refine(child)
        # z is eligible, so only eligible vertices of colour >= color[z]
        # can reject the child or be v*.
        top = [
            v for v in range(child.n)
            if color[v] >= color[z]
            and (not outerplanar or child.degree(v) <= 2)
            and (not connected or child.induced(set(range(child.n)) - {v}).is_connected())
        ]
        if any(color[v] > color[z] for v in top):
            continue
        if outerplanar and not is_outerplanar(child):
            continue
        code, labeling = canonical_labeling(child)
        vstar = max(top, key=labeling.index)
        if z != vstar and not automorphic(child, z, vstar):
            continue
        if code in seen:
            continue
        seen.add(code)
        yield child


# -- guarded moves ---------------------------------------------------
#
# Each checks its move's hypotheses at one vertex tuple exactly as
# stated and raises PreconditionError naming the first failed clause,
# except that add_edge_move raises EdgeStateError for a loop or an
# existing edge. When they hold, the rewritten graph has strictly larger
# Q-index.


class PreconditionError(ValueError):
    """A move's structural hypothesis is not satisfied.

    `clause` names the first failed hypothesis.
    """

    def __init__(self, clause, message=None):
        super().__init__(message or clause)
        self.clause = clause


def _require(cond: bool, clause: str) -> None:
    if not cond:
        raise PreconditionError(clause)


def add_edge_move(g: Graph, u: int, v: int) -> Graph:
    _require(g.is_connected(), "graph must be connected")
    if u == v or g.has_edge(u, v):
        raise EdgeStateError(f"cannot add edge {u}-{v}")
    return g.add_edge(u, v)


def perron_rotate(g: Graph, u: int, v: int, w: int) -> Graph:
    """Rewire vw to uw when the Perron vector satisfies x_u >= x_v.

    The vector hypothesis is accepted only with a numerical margin;
    borderline cases are rejected.
    """
    _require(g.is_connected(), "graph must be connected")
    _require(len({u, v, w}) == 3, "u, v, w must be distinct")
    _require(not g.has_edge(u, w), "uw must not be an edge")
    _require(g.has_edge(v, w), "vw must be an edge")
    failed = _perron_failure(q_index(g).vector, u, v)
    if failed is not None:
        raise PreconditionError(failed)
    return g.remove_edge(v, w).add_edge(u, w)


def _perron_failure(x, u: int, v: int) -> str | None:
    """The failed clause x_u >= x_v of perron_rotate for a Perron vector x,
    or None when it holds by more than transforms.PERRON_MARGIN."""
    diff = float(x[u] - x[v])
    if diff > transforms.PERRON_MARGIN:
        return None
    if diff < -transforms.PERRON_MARGIN:
        return "perron entries satisfy x_u < x_v"
    return "x_u vs x_v margin indistinguishable"


def leaf_reattach(g: Graph, u: int, v: int, w: int) -> Graph:
    """Move the outside-neighbor edge vw to uw when v is a low-degree
    neighbor of u whose outside neighborhood is pendant-like."""
    _require(g.is_connected(), "graph must be connected")
    _require(g.has_edge(u, v), "v must be a neighbor of u")
    _require(g.degree(v) <= g.degree(u) - 2, "d(v) <= d(u) - 2")
    closed_u = g.adj[u] | (1 << u)
    outside = g.adj[v] & ~closed_u
    _require((outside >> w) & 1, "w must lie in N(v) minus N[u]")
    _require(outside.bit_count() in (1, 2), "|N(v) \\ N[u]| must be 1 or 2")
    allowed = g.adj[v] & ~g.adj[u]
    for z in bits(outside):
        _require(
            (g.adj[z] & ~(1 << v)) & ~allowed == 0,
            "every z in N(v) \\ N[u] must satisfy N(z)\\{v} within N(v)\\N(u)",
        )
    return g.remove_edge(v, w).add_edge(u, w)


def pendant_pull(g: Graph, u: int, w1: int, w2: int) -> Graph:
    """Reattach a pendant w1 hanging off w2 directly to the hub u."""
    _require(g.is_connected(), "graph must be connected")
    closed_u = g.adj[u] | (1 << u)
    _require(not (closed_u >> w1) & 1, "w1 must avoid N[u]")
    _require(not (closed_u >> w2) & 1, "w2 must avoid N[u]")
    _require(g.adj[w1] == (1 << w2), "N(w1) must equal {w2}")
    _require(
        g.adj[w2] & ~(1 << w1) & ~g.adj[u] == 0,
        "N(w2)\\{w1} must lie inside N(u)",
    )
    _require(g.degree(u) >= g.degree(w2) + 1, "d(u) >= d(w2) + 1")
    return g.remove_edge(w1, w2).add_edge(u, w1)


def chord_swap(g: Graph, u: int, w: int, v1: int, v2: int) -> Graph:
    """Trade the chord v1v2 inside N(u) for the edge uw."""
    _require(g.is_connected(), "graph must be connected")
    _require(neighborhood_is_paths(g, u), "G[N(u)] must consist of paths")
    _require(g.degree(u) >= 5, "d(u) >= 5")
    closed_u = g.adj[u] | (1 << u)
    _require(not (closed_u >> w) & 1, "w must avoid N[u]")
    _require(g.adj[w] == (1 << v1) | (1 << v2), "N(w) must equal {v1, v2}")
    _require((g.adj[u] >> v1) & 1 and (g.adj[u] >> v2) & 1, "v1, v2 must be neighbors of u")
    _require(g.has_edge(v1, v2), "v1v2 must be an edge")
    for vi in (v1, v2):
        _require(
            g.adj[vi] & ~closed_u & ~(1 << w) == 0,
            "N(v_i) outside N[u] and {w} must be empty",
        )
    return g.remove_edge(v1, v2).add_edge(u, w)


def path_shift(h: Graph, u: int, t: int, s: int) -> Graph:
    """Shift one vertex of the shorter attached path onto the longer one:
    the gadget on (t, s) becomes the gadget on (t+1, s-1)."""
    _require(t >= s >= 1, "need t >= s >= 1")
    return h_gadget(h, u, t + 1, s - 1)


# -- labeled counts ---------------------------------------------------


def labeled_connected(top: int) -> list[int]:
    """Labeled connected graphs of order 1..top, by the exp-log
    recurrence: of the 2^C(n,2) labeled graphs of order n, those whose
    vertex 1 lies in a component of k < n vertices are not connected."""
    graphs = [2 ** comb(n, 2) for n in range(top + 1)]
    counts = [0]
    for n in range(1, top + 1):
        counts.append(graphs[n] - sum(comb(n - 1, k - 1) * counts[k] * graphs[n - k]
                                      for k in range(1, n)))
    return counts[1:]


def _series_product(a: list, b: list) -> list:
    """a * b truncated to the length of a."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def _series_exp(f: list) -> list:
    """exp(f) for a series with f[0] = 0: k e_k = sum_j j f_j e_(k-j)."""
    e = [Fraction(1)]
    for k in range(1, len(f)):
        e.append(sum(j * f[j] * e[k - j] for j in range(1, k + 1)) / k)
    return e


def labeled_connected_outerplanar(top: int) -> list[int]:
    """Labeled connected outerplanar graphs of order 1..top, by blocks.

    A block is K_2, or a polygon on k >= 3 vertices ((k - 1)!/2
    Hamiltonian cycles) with one of its dissections. The exponential
    series C of vertex-rooted graphs then satisfies C = x exp(B'(C)),
    B being the series of blocks; iterating it fixes one more
    coefficient each time.
    """
    # d[m]: dissections of an (m + 2)-gon. The face on the edge (0, m + 1)
    # has >= 2 other sides, each closing a smaller dissected polygon;
    # p[s] counts the sequences of such sides spanning s steps.
    d, p = [1], [1]
    for m in range(1, top):
        p.append(sum(d[a - 1] * p[m - a] for a in range(1, m + 1)))
        d.append(sum(d[a - 1] * p[m + 1 - a] for a in range(1, m + 1)))
    # B'(y) = sum_k B_k y^(k-1) / (k-1)!
    blocks = [Fraction(0), Fraction(1)] + [Fraction(d[j - 1], 2) for j in range(2, top + 1)]
    c = [Fraction(0)] * (top + 1)
    for _ in range(top):
        f, power = [Fraction(0)] * (top + 1), [Fraction(1)] + [Fraction(0)] * top
        for j in range(1, top + 1):
            power = _series_product(power, c)
            f = [x + blocks[j] * y for x, y in zip(f, power)]
        c = [Fraction(0)] + _series_exp(f)[:top]
    return [int(factorial(n - 1) * c[n]) for n in range(1, top + 1)]
