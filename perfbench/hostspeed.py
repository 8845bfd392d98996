"""A fixed pure-Python kernel that gauges the host's current speed.

The machine this benchmark was defined on is a shared VM whose speed
drifts by up to a factor of two over minutes. A worker times this kernel
right before and right after its ops; the run scales every time it
reports by REFERENCE_S over that kernel time, so the figures read as
seconds on the host at its typical speed. The kernel does the kind of
work qouter does (bitset BFS, degree-colour refinement on small graphs)
and does not touch qouter, so a change to the program cannot move it.
"""

import random
import time

# The kernel's median time on the reference machine (2-core VM, Python 3.11).
REFERENCE_S = 0.24


def kernel() -> int:
    rng = random.Random(12345)
    total = 0
    for _ in range(2400):
        n = 9
        adj = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.35:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
        seen = frontier = 1
        while frontier:
            grow = 0
            m = frontier
            while m:
                low = m & -m
                grow |= adj[low.bit_length() - 1]
                m ^= low
            frontier = grow & ~seen
            seen |= frontier
        color = [a.bit_count() for a in adj]
        for _ in range(3):
            keys = [(color[v], tuple(sorted(color[u] for u in range(n) if adj[v] >> u & 1)))
                    for v in range(n)]
            order = sorted(set(keys))
            color = [order.index(k) for k in keys]
        total += seen + sum(color)
    return total


def kernel_seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
