"""Q-index, Perron vector, eta bound, and Rayleigh-quotient deltas.

q(G) is the largest eigenvalue of Q(G) = D(G) + A(G). Graphs have at most
64 vertices, so each connected component gets one dense symmetric
eigensolve. On a component Q is nonnegative and irreducible, so its top
eigenvector x can be taken positive, and the Collatz-Wielandt bracket
min_i (Qx)_i/x_i <= q <= max_i (Qx)_i/x_i encloses the Perron root. The
distance from the computed q to the far end of that bracket is reported
as `radius`; comparisons count a gap only beyond the radii.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import EtaUndefinedError
from .graphs import Graph, bits


@dataclass(frozen=True)
class SpectralResult:
    q: float
    vector: np.ndarray  # unit 2-norm, read-only; zero off the extremal component
    radius: float  # |true q - q| <= radius
    connected: bool


def q_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for u in range(g.n):
        for v in bits(g.adj[u]):
            a[u, v] = 1.0
    return a + np.diag(a.sum(axis=1))


def _perron(mat: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Perron root, unit Perron vector and enclosure radius of an
    irreducible nonnegative symmetric matrix."""
    values, vectors = np.linalg.eigh(mat)
    q = float(values[-1])
    x = vectors[:, -1]
    if x.sum() < 0:
        x = -x
    if x.min() <= 0:
        return q, x, float("inf")  # no positive vector, no bracket
    ratios = (mat @ x) / x
    return q, x, max(q - float(ratios.min()), float(ratios.max()) - q)


@lru_cache(maxsize=1 << 18)
def q_index(g: Graph) -> SpectralResult:
    """Perron root and unit eigenvector of Q(g), with an enclosure radius.

    For a disconnected graph the result is the maximum over components,
    with the vector supported on an extremal component and the result
    flagged via `connected=False`. The result is cached and shared, so
    its vector is read-only.
    """
    comps = g.components()
    best = None
    for mask in comps:
        members = list(bits(mask))
        sub = g if len(comps) == 1 else g.induced(members)
        q, x, radius = _perron(q_matrix(sub))
        if best is None or q > best[0]:
            best = (q, x, radius, members)
    q, x, radius, members = best
    # a fresh array: caching the column view x would keep every n x n
    # eigenvector matrix alive
    vector = np.zeros(g.n)
    vector[members] = x
    vector.flags.writeable = False
    return SpectralResult(q, vector, radius, connected=len(comps) == 1)


def eta(g: Graph, u: int) -> float:
    """d(u) + (sum of neighbor degrees)/d(u), evaluated in exact arithmetic."""
    d = g.degree(u)
    if d == 0:
        raise EtaUndefinedError(f"vertex {u} is isolated")
    total = sum(g.degree(v) for v in bits(g.adj[u]))
    return float(Fraction(d * d + total, d))


def eta_exact(g: Graph, u: int) -> Fraction:
    d = g.degree(u)
    if d == 0:
        raise EtaUndefinedError(f"vertex {u} is isolated")
    total = sum(g.degree(v) for v in bits(g.adj[u]))
    return Fraction(d * d + total, d)


def eta_max(g: Graph) -> float:
    return float(max(eta_exact(g, u) for u in range(g.n)))


def rayleigh_delta(x, removed, added) -> float:
    """x^T (Q(after) - Q(before)) x for an edge rewrite."""
    x = np.asarray(x, dtype=float)
    gain = sum((x[a] + x[b]) ** 2 for a, b in added)
    loss = sum((x[a] + x[b]) ** 2 for a, b in removed)
    return float(gain - loss)


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
    if sep < 0:
        raise ValueError("sep must be nonnegative")
    a, b = q_index(g1), q_index(g2)
    if abs(a.q - b.q) > sep + a.radius + b.radius:
        return Ordering.GREATER if a.q > b.q else Ordering.LESS
    return Ordering.INDISTINGUISHABLE
