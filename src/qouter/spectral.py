"""Q-index, Perron vector and eta bound, solved in batches.

q(G) is the largest eigenvalue of Q(G) = D(G) + A(G). Graphs have at most
64 vertices, so each connected graph gets one dense symmetric
eigensolve. On a connected graph Q is nonnegative and irreducible, so its
top eigenvector x can be taken positive, and the Collatz-Wielandt bracket
min_i (Qx)_i/x_i <= q <= max_i (Qx)_i/x_i encloses the Perron root. The
distance from the computed q to the far end of that bracket is reported
as `radius`; `compare_results` counts a gap only beyond the radii.

`q_indices` is the one solver for general graphs. A disconnected graph is
the best of its components, each solved as a graph of its own. The
distinct connected graphs of one call, components included, are grouped
by order and each group is solved with stacked `eigh` calls of at most
`_STACK_ENTRIES` matrix entries each; the sign fix, the positivity test
and the bracket are computed per stack, as array operations. LAPACK
solves every matrix of a stack on its own, so a result does not depend
on the batch it came from. Nothing is kept between calls: a caller that
reads a result again keeps it. Joins K_1 v (P_{a_1} u ... u P_{a_s})
have their structured solver, `path_join_ratios`: one secular equation
each, and no matrix.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable

import numpy as np

from .errors import EtaUndefinedError, ParameterError, check_sep
from .graphs import Graph, bits

# 2^15 float64 entries (256 KiB) per stacked eigh call: hundreds of
# matrices per call at n <= 9, and the stack with its eigenvectors stays
# under 1 MB at any order.
_STACK_ENTRIES = 1 << 15


@dataclass(frozen=True, slots=True)
class SpectralResult:
    q: float
    vector: np.ndarray  # unit 2-norm, read-only; zero off the extremal component
    radius: float  # |true q - q| <= radius


def _q_stack(rows: list[tuple[int, ...]]) -> np.ndarray:
    """Q matrices of k-vertex graphs: entry (i, j) of matrix c is bit j
    of rows[c][i]."""
    k = len(rows[0])
    # uint64, so that bit 63 of a 64-vertex row shifts down correctly
    a = (np.array(rows, dtype=np.uint64)[:, :, None]
         >> np.arange(k, dtype=np.uint64)) & np.uint64(1)
    mats = a.astype(np.float64)
    diag = np.arange(k)
    mats[:, diag, diag] = mats.sum(axis=2)
    return mats


def _bracket(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """q, the sign-fixed top eigenvectors (rows of one fresh read-only
    array) and the Collatz-Wielandt radii of a stack of Q matrices."""
    values, vectors = np.linalg.eigh(mats)
    qs = values[:, -1]
    xs = vectors[:, :, -1]
    xs = np.where(xs.sum(axis=1, keepdims=True) < 0, -xs, xs)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.matmul(mats, xs[:, :, None])[:, :, 0] / xs
        radii = np.maximum(qs - ratios.min(axis=1), ratios.max(axis=1) - qs)
    radii[xs.min(axis=1) <= 0] = np.inf  # no positive vector, no bracket
    xs.flags.writeable = False
    return qs, xs, radii


def _solve(graphs: list[Graph]) -> dict[Graph, SpectralResult]:
    """Solve distinct connected graphs in stacks per order."""
    groups: dict[int, list[Graph]] = {}
    for g in graphs:
        groups.setdefault(g.n, []).append(g)
    results = {}
    for k, group in groups.items():
        step = max(1, _STACK_ENTRIES // (k * k))
        for start in range(0, len(group), step):
            chunk = group[start:start + step]
            qs, xs, radii = _bracket(_q_stack([g.adj for g in chunk]))
            # each vector is a row of the stack's own array, which holds
            # no reference to eigh's output
            for g, q, x, radius in zip(chunk, qs.tolist(), xs, radii.tolist()):
                results[g] = SpectralResult(q, x, radius)
    return results


def _parts(g: Graph) -> list[tuple[list[int], Graph]]:
    """Each component of g: its vertices, and the graph it induces."""
    return [(members, g.induced(members))
            for members in (list(bits(mask)) for mask in g.components())]


def _best_part(g: Graph, parts: list[tuple[list[int], Graph]],
               results: list[SpectralResult]) -> SpectralResult:
    """The result of a disconnected g from its components' results: the
    first component, by least vertex, among those with the largest q."""
    best = max(range(len(parts)), key=lambda i: (results[i].q, -i))
    vector = np.zeros(g.n)
    vector[parts[best][0]] = results[best].vector
    vector.flags.writeable = False
    return SpectralResult(results[best].q, vector, results[best].radius)


def q_indices(graphs: Iterable[Graph]) -> list[SpectralResult]:
    """Perron root and unit eigenvector of Q(g), with an enclosure radius,
    for each g in graphs, in order.

    For a disconnected graph the result is the maximum over components,
    with the vector supported on an extremal component. Each distinct
    graph and each distinct component is solved once, all in one batch;
    equal graphs share one result, and its vector is read-only, so a
    caller that keeps a result cannot change it for another.
    """
    graphs = list(graphs)
    split = {g: _parts(g) for g in dict.fromkeys(graphs) if not g.is_connected()}
    components = [part for parts in split.values() for _, part in parts]
    found = _solve(list(dict.fromkeys([g for g in graphs if g not in split] + components)))
    for g, parts in split.items():
        found[g] = _best_part(g, parts, [found[part] for _, part in parts])
    return [found[g] for g in graphs]


def q_index(g: Graph) -> SpectralResult:
    """The q_indices result of one graph."""
    return q_indices((g,))[0]


def path_join_ratios(parts_list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """q, the Perron ratios x_v / x_hub (a row per join, its paths in the
    order given) and the Collatz-Wielandt radii of the joins
    K_1 v (P_{a_1} u ... u P_{a_s}) of one order n >= 5, each as if alone.

    y = x / x_hub solves ((q - 1)I - Q(F))y = 1 on the linear forest F, and
    q is the root of f(q) = q - (n - 1) - sum(y), f'(q) = 1 + |y|^2. Newton
    starts at q(K_{1,n-1}) = n <= q, right of every pole (1 + q(F) < 5 <= n)
    where f rises and is concave, and stops at the first iterate not rising."""
    parts_list = list(parts_list)
    if any(type(a) is not int for parts in parts_list for a in parts):  # a bool is no order
        raise ParameterError(f"path joins need int parts, got {parts_list}")
    k = sum(parts_list[0]) if parts_list else 0
    if k < 4 or any(sum(parts) != k or min(parts) < 1 for parts in parts_list):
        raise ParameterError("path joins need one order n >= 5 and parts >= 1")
    # link[i] = 1 where F has the edge {i - 1, i}: 0 at each part boundary
    link = np.ones((k + 1, len(parts_list)))
    for j, parts in enumerate(parts_list):
        link[[0, *accumulate(parts)], j] = 0.0
    q, rise = np.full(len(parts_list), -np.inf), np.full(len(parts_list), k + 1.0)
    pad = np.zeros((k + 2, len(parts_list)))  # y_v in row v + 1, 0 past the ends
    y = pad[1:-1]
    while (rise > q).any():
        q = np.maximum(q, rise)
        # y by a Thomas sweep, then f and f' (cumsum adds in vertex order)
        pivot, rhs = (q - 1) - (link[:-1] + link[1:]), np.ones_like(y)
        for i in range(1, k):
            w = link[i] / pivot[i - 1]
            pivot[i] -= w
            rhs[i] += w * rhs[i - 1]
        for i in range(k - 1, -1, -1):
            y[i] = (rhs[i] + link[i + 1] * pad[i + 2]) / pivot[i]
        hub = k + np.cumsum(y, axis=0)[-1]
        rise = q - (q - hub) / (1.0 + np.cumsum(y * y, axis=0)[-1])
    # (Q(y, 1))_v / y_v: each edge at v adds y_v and its other end's entry
    ratios = (link[:-1] * (y + pad[:-2]) + link[1:] * (y + pad[2:]) + y + 1) / y
    radii = np.maximum(q - np.minimum(ratios.min(axis=0), hub),
                       np.maximum(ratios.max(axis=0), hub) - q)
    radii[y.min(axis=0) <= 0] = np.inf  # no positive vector, no bracket
    return q, y.T, radii


def eta_max(g: Graph) -> float:
    """max over u of d(u) + (sum of neighbour degrees)/d(u), an upper bound
    on q(g), bit for bit: int / int rounds correctly, and monotonely."""
    degree = [row.bit_count() for row in g.adj]
    if 0 in degree:
        raise EtaUndefinedError(f"vertex {degree.index(0)} is isolated")
    return max((d * d + sum(degree[v] for v in bits(row))) / d
               for d, row in zip(degree, g.adj))


class Ordering(enum.Enum):
    GREATER = "greater"
    LESS = "less"
    INDISTINGUISHABLE = "indistinguishable"


def compare_results(a: SpectralResult, b: SpectralResult | float, sep: float = 1e-9) -> Ordering:
    """Certified comparison of a.q vs b.q, a number b being exact (radius
    0): GREATER/LESS only when the gap exceeds `sep` plus both radii, so
    the enclosures widened by `sep` are disjoint (sep = 0 asks only that
    they be disjoint); otherwise INDISTINGUISHABLE rather than a guess."""
    check_sep(sep)
    b_q, b_radius = (b.q, b.radius) if isinstance(b, SpectralResult) else (b, 0.0)
    if abs(a.q - b_q) > sep + a.radius + b_radius:
        return Ordering.GREATER if a.q > b_q else Ordering.LESS
    return Ordering.INDISTINGUISHABLE

