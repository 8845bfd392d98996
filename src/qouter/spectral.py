"""Q-index, Perron vector and eta bound, solved in batches.

q(G) is the largest eigenvalue of Q(G) = D(G) + A(G). Graphs have at most
64 vertices, so each connected component gets one dense symmetric
eigensolve. On a component Q is nonnegative and irreducible, so its top
eigenvector x can be taken positive, and the Collatz-Wielandt bracket
min_i (Qx)_i/x_i <= q <= max_i (Qx)_i/x_i encloses the Perron root. The
distance from the computed q to the far end of that bracket is reported
as `radius`; comparisons count a gap only beyond the radii.

`q_indices` is the one solver. It groups the components of every graph
it has not solved before by order and solves each group with stacked
`eigh` calls of at most `_STACK_ENTRIES` matrix entries each; LAPACK
solves every matrix of a stack on its own, so a result does not depend
on the batch it came from. Results live in one dict keyed by graph,
bounded at `_CACHE_SIZE` entries; `q_index` reads it and solves a miss
as a batch of one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable

import numpy as np

from .errors import EtaUndefinedError, check_sep
from .graphs import Graph, bits

_CACHE_SIZE = 1 << 18
# 2^15 float64 entries (256 KiB) per stacked eigh call: hundreds of
# matrices per call at n <= 9, and the stack with its eigenvectors stays
# under 1 MB at any order.
_STACK_ENTRIES = 1 << 15

_cache: dict[Graph, "SpectralResult"] = {}


@dataclass(frozen=True)
class SpectralResult:
    q: float
    vector: np.ndarray  # unit 2-norm, read-only; zero off the extremal component
    radius: float  # |true q - q| <= radius
    connected: bool


def _q_stack(rows: list[list[int]], members: list[list[int]]) -> np.ndarray:
    """Q matrices of k-vertex components: entry (i, j) of matrix c is bit
    members[c][j] of rows[c][i], the row of its i-th vertex."""
    # uint64, so that bit 63 of a 64-vertex row shifts down correctly
    a = (np.array(rows, dtype=np.uint64)[:, :, None]
         >> np.array(members, dtype=np.uint64)[:, None, :]) & np.uint64(1)
    mats = a.astype(np.float64)
    diag = np.arange(mats.shape[1])
    mats[:, diag, diag] = mats.sum(axis=2)
    return mats


def _solve(graphs: list[Graph]) -> dict[Graph, SpectralResult]:
    """Solve distinct graphs, component by component, in stacks per order.

    A graph keeps its first component, by least vertex, among those with
    the largest q, whatever order the stacks are solved in.
    """
    groups: dict[int, list[tuple[Graph, int, list[int]]]] = {}
    connected = {}
    for g in graphs:
        comps = g.components()
        connected[g] = len(comps) == 1
        for index, mask in enumerate(comps):
            groups.setdefault(mask.bit_count(), []).append((g, index, list(bits(mask))))
    best: dict[Graph, tuple[float, int, np.ndarray, float]] = {}
    for k, items in groups.items():
        step = max(1, _STACK_ENTRIES // (k * k))
        for start in range(0, len(items), step):
            chunk = items[start:start + step]
            mats = _q_stack([[g.adj[v] for v in members] for g, _, members in chunk],
                            [members for _, _, members in chunk])
            values, vectors = np.linalg.eigh(mats)
            for (g, index, members), mat, q, vecs in zip(chunk, mats, values[:, -1], vectors):
                q = float(q)
                old = best.get(g)
                if old is not None and (q < old[0] or (q == old[0] and index > old[1])):
                    continue
                x = vecs[:, -1]
                if x.sum() < 0:
                    x = -x
                if x.min() <= 0:
                    radius = float("inf")  # no positive vector, no bracket
                else:
                    ratios = (mat @ x) / x
                    radius = max(q - float(ratios.min()), float(ratios.max()) - q)
                # a fresh array: keeping the column view x would keep the
                # whole stack of eigenvectors alive
                vector = np.zeros(g.n)
                vector[members] = x
                vector.flags.writeable = False
                best[g] = (q, index, vector, radius)
    return {g: SpectralResult(q, vector, radius, connected[g])
            for g, (q, _, vector, radius) in best.items()}


def q_indices(graphs: Iterable[Graph]) -> list[SpectralResult]:
    """Perron root and unit eigenvector of Q(g), with an enclosure radius,
    for each g in graphs, in order.

    For a disconnected graph the result is the maximum over components,
    with the vector supported on an extremal component and the result
    flagged via `connected=False`. Results are cached and shared, so
    their vectors are read-only; a graph solved before is looked up, and
    the others are solved together.
    """
    graphs = list(graphs)
    found = {g: _cache.get(g) for g in graphs}
    missing = [g for g, res in found.items() if res is None]
    if missing:
        solved = _solve(missing)
        found.update(solved)
        for g, res in solved.items():
            if len(_cache) >= _CACHE_SIZE:
                # drop the older half at once, so eviction stays O(1) per entry
                for old in list(islice(_cache, _CACHE_SIZE // 2)):
                    del _cache[old]
            _cache[g] = res
    return [found[g] for g in graphs]


def q_index(g: Graph) -> SpectralResult:
    """The q_indices result of one graph."""
    res = _cache.get(g)
    return res if res is not None else q_indices((g,))[0]


def eta_exact(g: Graph, u: int) -> Fraction:
    """d(u) + (sum of neighbor degrees)/d(u), an upper bound on q(g)."""
    d = g.degree(u)
    if d == 0:
        raise EtaUndefinedError(f"vertex {u} is isolated")
    total = sum(g.degree(v) for v in bits(g.adj[u]))
    return Fraction(d * d + total, d)


def eta_max(g: Graph) -> float:
    return float(max(eta_exact(g, u) for u in range(g.n)))


class Ordering(enum.Enum):
    GREATER = "greater"
    LESS = "less"
    INDISTINGUISHABLE = "indistinguishable"


def q_compare(g1: Graph, g2: Graph, sep: float = 1e-9) -> Ordering:
    """Certified comparison of q(g1) vs q(g2), from one solve each.

    Returns GREATER/LESS only when the gap exceeds `sep` plus both
    enclosure radii, so the enclosures widened by `sep` are disjoint
    (sep = 0 asks only that the enclosures be disjoint); otherwise
    INDISTINGUISHABLE rather than a guess.
    """
    check_sep(sep)
    a, b = q_index(g1), q_index(g2)
    if abs(a.q - b.q) > sep + a.radius + b.radius:
        return Ordering.GREATER if a.q > b.q else Ordering.LESS
    return Ordering.INDISTINGUISHABLE
