"""Q-index, Perron vector and eta bound, solved in batches.

q(G) is the largest eigenvalue of Q(G) = D(G) + A(G). Graphs have at most
64 vertices, so each connected graph gets one dense symmetric
eigensolve. On a connected graph Q is nonnegative and irreducible, so its
top eigenvector x can be taken positive, and the Collatz-Wielandt bracket
min_i (Qx)_i/x_i <= q <= max_i (Qx)_i/x_i encloses the Perron root. The
distance from the computed q to the far end of that bracket is reported
as `radius`; `compare_results` counts a gap only beyond the radii.

`q_indices` is the one solver. A disconnected graph is the best of its
components, each looked up or solved as a connected graph of its own.
The connected graphs it has not solved before are grouped by order and
each group is solved with stacked `eigh` calls of at most
`_STACK_ENTRIES` matrix entries each; the sign fix, the positivity test
and the bracket are computed per stack, as array operations. LAPACK
solves every matrix of a stack on its own, so a result does not depend
on the batch it came from. `q_stream` serves a stream too long to hold
at once (the move results of the lemma suites): it reads ahead only
until the graphs not yet solved fill one stack, and passes them to
`q_indices` together. Results live in one dict keyed by graph, bounded
at `_CACHE_SIZE` entries; `q_index` reads it and solves a miss as a
batch of one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from .errors import EtaUndefinedError, check_sep
from .graphs import Graph, bits

_CACHE_SIZE = 1 << 18
# 2^15 float64 entries (256 KiB) per stacked eigh call: hundreds of
# matrices per call at n <= 9, and the stack with its eigenvectors stays
# under 1 MB at any order.
_STACK_ENTRIES = 1 << 15

_cache: dict[Graph, "SpectralResult"] = {}


@dataclass(frozen=True, slots=True)
class SpectralResult:
    q: float
    vector: np.ndarray  # unit 2-norm, read-only; zero off the extremal component
    radius: float  # |true q - q| <= radius
    connected: bool


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
                results[g] = SpectralResult(q, x, radius, True)
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
    return SpectralResult(results[best].q, vector, results[best].radius, False)


def q_indices(graphs: Iterable[Graph]) -> list[SpectralResult]:
    """Perron root and unit eigenvector of Q(g), with an enclosure radius,
    for each g in graphs, in order.

    For a disconnected graph the result is the maximum over components,
    with the vector supported on an extremal component and the result
    flagged via `connected=False`. Results are cached and shared, so
    their vectors are read-only; a graph solved before is looked up, and
    the others are solved together, the components of the disconnected
    ones among them (these are cached as graphs of their own too).
    """
    graphs = list(graphs)
    found = {g: _cache.get(g) for g in graphs}
    split = {g: _parts(g) for g, res in found.items() if res is None and not g.is_connected()}
    for parts in split.values():
        for _, part in parts:
            if part not in found:
                found[part] = _cache.get(part)
    solved = _solve([g for g, res in found.items() if res is None and g not in split])
    found.update(solved)
    for g, parts in split.items():
        solved[g] = found[g] = _best_part(g, parts, [found[part] for _, part in parts])
    for g, res in solved.items():
        if len(_cache) >= _CACHE_SIZE:
            # drop the older half at once, so eviction stays O(1) per entry
            for old in list(islice(_cache, _CACHE_SIZE // 2)):
                del _cache[old]
        _cache[g] = res
    return [found[g] for g in graphs]


def q_stream(tagged: Iterable[tuple[object, Graph]]) -> Iterator[tuple[object, SpectralResult]]:
    """Yield (tag, q_indices result of g) for each (tag, g) in tagged, in
    order.

    The stream is read ahead only until the graphs in it not yet solved
    fill one stack of the latest graph's order; those read so far then go
    to q_indices as one batch, and their results are yielded.
    """
    tags, graphs, unsolved = [], [], set()
    for tag, g in tagged:
        tags.append(tag)
        graphs.append(g)
        if g not in _cache:
            unsolved.add(g)
            if len(unsolved) >= max(1, _STACK_ENTRIES // (g.n * g.n)):
                yield from zip(tags, q_indices(graphs))
                tags, graphs, unsolved = [], [], set()
    yield from zip(tags, q_indices(graphs))


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
    """float(max of eta_exact over the vertices), bit for bit: int / int
    rounds correctly to nearest, and that rounding is monotone."""
    degree = [row.bit_count() for row in g.adj]
    if 0 in degree:
        raise EtaUndefinedError(f"vertex {degree.index(0)} is isolated")
    return max((d * d + sum(degree[v] for v in bits(row))) / d
               for d, row in zip(degree, g.adj))


class Ordering(enum.Enum):
    GREATER = "greater"
    LESS = "less"
    INDISTINGUISHABLE = "indistinguishable"


def compare_results(a: SpectralResult, b: SpectralResult, sep: float = 1e-9) -> Ordering:
    """Certified comparison of a.q vs b.q: GREATER/LESS only when the gap
    exceeds `sep` plus both enclosure radii, so the enclosures widened by
    `sep` are disjoint (sep = 0 asks only that the enclosures be
    disjoint); otherwise INDISTINGUISHABLE rather than a guess."""
    check_sep(sep)
    if abs(a.q - b.q) > sep + a.radius + b.radius:
        return Ordering.GREATER if a.q > b.q else Ordering.LESS
    return Ordering.INDISTINGUISHABLE


def q_compare(g1: Graph, g2: Graph, sep: float = 1e-9) -> Ordering:
    """compare_results of one solve each of g1 and g2."""
    return compare_results(q_index(g1), q_index(g2), sep)
