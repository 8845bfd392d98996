"""Verification campaigns: theorem-level argmax checks and lemma suites."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial
from itertools import combinations, groupby
from pathlib import Path
from typing import Callable

from . import recognition, transforms
from .canon import canonical_code
from .constructions import covers, cycle_extremal, h_gadget, path_extremal, path_join
from .enumeration import (
    CONNECTED_CAP,
    EXHAUSTIVE_CAP,
    EnumerationClass,
    connected_graphs,
    connected_outerplanar,
    extremal_argmax,
)
from .errors import ConfigError, ParameterError, check_sep
from .graph6 import graph6_encode
from .graphs import bits
from .recognition import ForbiddenPattern
from .spectral import Ordering, compare_results, eta_max, path_join_ratios, q_index, q_indices

CONFIRMED = "Confirmed"
REFUTED = "Refuted"
TIE = "Tie"
OUT_OF_SCOPE = "OutOfScope"
ERROR = "Error"

# (t, ell) of the path cells a campaign runs. With them a cycle, path and
# structural campaign at n = 5..8 has 66 cells, the op count that
# perfbench's campaign workload expects (`OPS` in perfbench/run.py).
PATH_THEOREM_CELLS = ((1, 4), (1, 5), (1, 6), (2, 2), (2, 3))


@dataclass
class VerificationReport:
    check_id: str
    parameters: dict
    status: str
    witness_graphs: list[str] = field(default_factory=list)
    q_values: list[float] = field(default_factory=list)
    margin: float = 0.0
    runtime_ms: int = 0
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        """JSON (RFC 8259) has no infinity: a non-finite margin or sep is
        null, and any other non-finite value raises ValueError."""
        data = self.to_dict()
        for fields, key in ((data, "margin"), (data["parameters"], "sep")):
            if key in fields and not math.isfinite(fields[key]):
                fields[key] = None
        return json.dumps(data, indent=2, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        data = json.loads(text)
        for fields, key in ((data, "margin"), (data["parameters"], "sep")):
            if key in fields and fields[key] is None:
                fields[key] = math.inf
        return cls(**data)


def _timed(fn):
    start = time.perf_counter()
    report = fn()
    report.runtime_ms = int((time.perf_counter() - start) * 1000)
    return report


# -- theorem checks ---------------------------------------------------


@dataclass(frozen=True)
class Theorem:
    """A theorem checked one cell (n, pattern) at a time, n in
    1..EXHAUSTIVE_CAP: `has_cell` says which patterns an order has (those
    of the kind that `constructions.covers`), `rule` says so in words, and
    `entry` runs a cell through the kind's public check, looked up by name
    at call time: perfbench's campaign workload replaces the three public
    check names in this module with timed wrappers, to time each cell as
    one op.
    `candidate(n, pattern, sep)` gives the paper's graph (or None), the
    report's parameters and extra q values. The cell is Confirmed when
    that graph is the argmax's unique winner (`ArgmaxResult.unique`);
    else `miss(result, code)`, code being the graph's canonical code,
    gives the status, witnesses and note. Without a candidate `miss` is
    the whole rule, and None means Confirmed."""

    check_id: str
    has_cell: Callable[[int, ForbiddenPattern], bool]
    rule: str
    entry: Callable[[int, ForbiddenPattern, float], VerificationReport]
    candidate: Callable
    miss: Callable

    def cells(self, n: int) -> list[ForbiddenPattern]:
        """The patterns of order n, cycles first, then the path cells."""
        patterns = [ForbiddenPattern.cycle(ell) for ell in range(3, n + 1)]
        patterns += [ForbiddenPattern.paths(t, ell) for t, ell in PATH_THEOREM_CELLS]
        return [p for p in patterns if self.has_cell(n, p)]


def _cycle_candidate(n, pattern, sep):
    expected, alpha, r = cycle_extremal(n, pattern.ell)
    return expected, {"n": n, "ell": pattern.ell, "alpha": alpha, "r": r, "sep": sep}, []


def _path_candidate(n, pattern, sep):
    expected, alpha, r = path_extremal(n, pattern.t, pattern.ell)
    return expected, {"n": n, "t": pattern.t, "ell": pattern.ell, "alpha": alpha, "r": r,
                      "sep": sep}, [q_index(expected).q]


def _candidate_miss(status, note, result, code):
    """Tie if the candidate is among the winners, else `status`."""
    if code in result.codes:
        return TIE, result.graphs, "candidate is co-maximal but not separated"
    return status, result.graphs, note


def _hub_rule(result, code):
    """Refuted if a winner lacks a universal vertex with a path neighborhood."""
    bad = [g for g in result.graphs if not any(
        g.degree(u) == g.n - 1 and recognition.neighborhood_is_paths(g, u) for u in range(g.n))]
    return (REFUTED, bad, "winner lacks a universal vertex with path neighborhood") if bad else None


_CYCLE = Theorem(
    "cycle:n={n},ell={p.ell}", lambda n, p: p.kind == "cycle" and covers(n, p),
    "a C<ell> pattern with 3 <= ell <= n",
    lambda n, p, sep: verify_cycle_theorem(n, p.ell, sep), _cycle_candidate,
    partial(_candidate_miss, REFUTED, "argmax winner differs from the candidate graph"))
# a path cell below the theorem's order threshold may legitimately miss
_PATH = Theorem(
    "path:n={n},t={p.t},ell={p.ell}",
    lambda n, p: p.kind == "paths" and covers(n, p),
    "a <t>P<ell> pattern with t >= 2 or ell >= 4, and t*ell <= n - 1",
    lambda n, p, sep: verify_path_theorem(n, p.t, p.ell, sep), _path_candidate,
    partial(_candidate_miss, OUT_OF_SCOPE, "argmax differs from candidate at sub-threshold "
            "order; theorem hypotheses demand larger n"))
THEOREMS = {
    "cycle": _CYCLE,
    "path": _PATH,
    "structural": Theorem(
        "structural:n={n},pattern={p}", covers,
        f"{_CYCLE.rule}, or {_PATH.rule}",
        lambda n, p, sep: structural_check(n, p, sep),
        lambda n, p, sep: (None, {"n": n, "pattern": str(p), "sep": sep}, []), _hub_rule),
}


def _run_cell(kind: str, n: int, pattern: ForbiddenPattern, sep: float) -> VerificationReport:
    """The class argmax of one cell, judged by the kind's candidate and rule."""
    theorem = THEOREMS[kind]
    if not (type(n) is int and 1 <= n <= EXHAUSTIVE_CAP and isinstance(pattern, ForbiddenPattern)
            and theorem.has_cell(n, pattern)):
        raise ParameterError(f"{kind} check needs {theorem.rule} and 1 <= n <= "
                             f"{EXHAUSTIVE_CAP}, got n={n}, pattern={pattern}")

    def run():
        expected, parameters, q_values = theorem.candidate(n, pattern, sep)
        result = extremal_argmax(EnumerationClass(n, pattern), sep)
        code = None if expected is None else canonical_code(expected)
        hit = result.unique and result.codes[0] == code
        miss = None if hit else theorem.miss(result, code)
        status, witnesses, note = miss or (CONFIRMED, result.graphs, None)
        return VerificationReport(
            check_id=theorem.check_id.format(n=n, p=pattern),
            parameters=parameters,
            status=status,
            witness_graphs=[graph6_encode(g) for g in witnesses],
            q_values=[result.q] + q_values,
            margin=result.margin,
            notes=[note] if note else [],
        )

    return _timed(run)


def verify_cycle_theorem(n: int, ell: int, sep: float = 1e-9) -> VerificationReport:
    """Exhaustive argmax over connected outerplanar C_ell-free graphs,
    compared with the constructed candidate."""
    return _run_cell("cycle", n, ForbiddenPattern.cycle(ell), sep)


def verify_path_theorem(n: int, t: int, ell: int, sep: float = 1e-9) -> VerificationReport:
    """Brute-force argmax over connected outerplanar tP_ell-free graphs,
    compared with the constructed candidate. Sub-threshold mismatches are
    reported OutOfScope with data, never Refuted."""
    return _run_cell("path", n, ForbiddenPattern.paths(t, ell), sep)


def structural_check(n: int, pattern: ForbiddenPattern, sep: float = 1e-9) -> VerificationReport:
    """Every argmax winner must have a universal vertex whose neighborhood
    induces a union of paths."""
    return _run_cell("structural", n, pattern, sep)


# -- lemma suites -----------------------------------------------------


def _report(name, params, violations, margin, notes=None) -> VerificationReport:
    return VerificationReport(
        check_id=f"lemma:{name}",
        parameters=params,
        status=CONFIRMED if not violations else REFUTED,
        witness_graphs=[graph6_encode(g) for g, _ in violations[:20]],
        q_values=[],
        margin=margin,
        notes=(notes or []) + [msg for _, msg in violations[:20]],
    )


def _check_obv(n_range, sep):
    del sep  # a combinatorial suite
    violations = []
    literal_exceptions = []
    for n in n_range:
        for g in connected_outerplanar(n):
            if g.m > 2 * n - 3:
                violations.append((g, f"e={g.m} exceeds 2n-3 at n={n}"))
            for u in range(n):
                if not recognition.neighborhood_is_paths(g, u):
                    violations.append((g, f"N({u}) is not a union of paths"))
                nbrs = g.adj[u]
                closed = nbrs | (1 << u)
                two_cn = []
                for v in range(n):
                    if v == u:
                        continue
                    cn = recognition.common_neighbors(g, u, v)
                    if len(cn) > 2:
                        violations.append((g, f"|N({u}) cap N({v})| = {len(cn)} > 2"))
                    if len(cn) == 2 and not (closed >> v) & 1:
                        a, b = cn
                        two_cn.append((v, a, b))
                        if not g.has_edge(a, b):
                            if (g.reachable_mask(a, nbrs) >> b) & 1:
                                violations.append(
                                    (g, f"common neighbors of {u},{v} nonadjacent "
                                        "but in one component of G[N(u)]")
                                )
                            elif any((g.adj[x] & nbrs).bit_count() > 1 for x in cn):
                                violations.append(
                                    (g, f"common neighbors of {u},{v} in different "
                                        "components but not both path endpoints")
                                )
                for (v1, a1, b1), (v2, a2, b2) in combinations(two_cn, 2):
                    if not ({a1, b1} & {a2, b2}):
                        continue
                    # The disjointness of the two common-neighbor pairs
                    # only holds when v1 and v2 are adjacent (contracting
                    # v1v2 would force three common neighbors with u,
                    # which outerplanarity forbids). Without that edge
                    # there are outerplanar counterexamples; those are
                    # surfaced as notes, not violations.
                    if g.has_edge(v1, v2):
                        violations.append(
                            (g, f"overlapping 2-common-neighbor pairs at {u}: "
                                f"{v1},{v2} despite edge {v1}-{v2}")
                        )
                    else:
                        literal_exceptions.append(
                            (g, f"nonadjacent {v1},{v2} share a common "
                                f"neighbor with {u}")
                        )
    notes = []
    if literal_exceptions:
        g0, msg = literal_exceptions[0]
        notes.append(
            "pair-disjointness holds only for adjacent vertex pairs; "
            f"{len(literal_exceptions)} unrestricted exceptions, e.g. "
            f"{graph6_encode(g0)} ({msg})"
        )
    return _report("obv", {"n_range": list(n_range)}, violations, 0.0, notes=notes)


@lru_cache(maxsize=None)
def _solved_level(n):
    """(g, its q_indices result) for every connected graph of order n, solved
    as one batch once and shared by the suites; at most CONNECTED_CAP levels."""
    graphs = connected_graphs(n)
    return tuple(zip(graphs, q_indices(graphs)))


def _solved(n_range):
    """(g, its q_indices result) for every connected graph of the orders in n_range."""
    return (pair for n in n_range for pair in _solved_level(n))


def _check_delta(n_range, sep):
    violations = []
    slack = float("inf")
    for g, res in _solved(n_range):
        bound = g.max_degree() + 1
        order = compare_results(res, bound, sep)
        if order is Ordering.LESS:
            violations.append((g, f"q={res.q} below max-degree bound {bound}"))
        is_star = g.m == g.n - 1 and g.max_degree() == g.n - 1
        if order is Ordering.INDISTINGUISHABLE and not is_star:
            violations.append((g, "max-degree bound tight on a non-star"))
        if is_star and order is not Ordering.INDISTINGUISHABLE:
            violations.append((g, "max-degree bound not tight on the star"))
        if not is_star:
            slack = min(slack, res.q - bound)
    return _report("delta", {"n_range": list(n_range), "sep": sep}, violations, slack)


def _check_qmu(n_range, sep):
    violations = []
    slack = float("inf")
    for g, res in _solved(n_range):
        bound = eta_max(g)
        if compare_results(res, bound, sep) is Ordering.GREATER:
            violations.append((g, f"q={res.q} above eta bound {bound}"))
        slack = min(slack, bound - res.q)
    return _report("qmu", {"n_range": list(n_range), "sep": sep}, violations, slack)


# The Rayleigh certificate's test vector is the before's Perron vector
# times 2^40, rounded to integers: its quotients are then exact.
_RAYLEIGH_SCALE = float(1 << 40)


def _rayleigh_setup(before, base, sep):
    """(X, num, threshold, den) of the Rayleigh certificate at before, or
    None when base.q + base.radius + sep is not finite (no bracket).

    X is base's vector scaled and rounded, den = sum X_i^2 and num = sum
    of (X_u + X_v)^2 over before's edges. Any nonzero X gives q(G) >=
    X'Q(G)X / X'X for every graph G of before's order, so an after whose
    numerator exceeds threshold = floor((q + radius + sep) * den), that
    sum formed exactly, has q above the before's bracket by more than sep:
    the exact twin of `compare_results`'s rule, on a lower bound of q.
    _raises_q sets up each before once, at its first edit.
    """
    if not math.isfinite(base.q + base.radius + sep):
        return None
    xs = [round(v * _RAYLEIGH_SCALE) for v in base.vector.tolist()]
    den = sum(v * v for v in xs)
    ratios = [value.as_integer_ratio() for value in (base.q, base.radius, sep)]
    scale = math.lcm(*(d for _, d in ratios))
    hi = sum(p * (scale // d) for p, d in ratios)
    num = sum((xs[u] + xs[v]) ** 2  # over the edges uv with u < v
              for u, row in enumerate(before.adj) for v in bits(row >> u << u))
    return xs, num, hi * den // scale, den


def _raises_q(name, params, befores, sep, describe) -> VerificationReport:
    """The report of a suite whose every instance must raise q.

    `befores` yields (before, before's result, instances), and each
    instance is an edge edit (label, drop, add) of before: q of its after
    must exceed the before's bracket by more than sep, and a miss is a
    violation at before, named by describe(label). An edit is certified,
    its after never built, when the after's exact Rayleigh quotient R on
    before's scaled Perron vector clears q + radius + sep of before (see
    _rayleigh_setup): before is set up once, and the edit's rise of its
    numerator, (X_a + X_b)^2 for add = ab less (X_c + X_d)^2 for drop =
    cd, must exceed before's slack, threshold less num. Only the afters
    left open are built (transforms.rewrite) and solved, as one batch,
    and must compare GREATER than the before's result. The margin is a
    lower bound on the least rise: R at a before's least certified rise,
    or a solved after's lower bracket end, less the before's upper end.
    """
    violations = []
    margin = float("inf")
    count = 0
    left_open = []
    for before, base, instances in befores:
        slack = None
        least = math.inf  # the least certified rise of before's numerator
        for label, drop, add in instances:
            count += 1
            if slack is None:  # set up at a before's first instance
                # without a bracket, an infinite slack leaves every edit open
                xs, num, threshold, den = (_rayleigh_setup(before, base, sep)
                                           or ([0] * before.n, 0, math.inf, 1))
                slack = threshold - num
            rise = (xs[add[0]] + xs[add[1]]) ** 2
            if drop is not None:
                rise -= (xs[drop[0]] + xs[drop[1]]) ** 2
            if rise <= slack:
                left_open.append((before, base, label, drop, add))
            elif rise < least:
                least = rise
        if least < math.inf:
            # int / int rounds correctly, so the least rise has the least quotient
            margin = min(margin, (num + least) / den - (base.q + base.radius))
    afters = q_indices(transforms.rewrite(g, drop, add) for g, _, _, drop, add in left_open)
    for (before, base, label, _, _), res in zip(left_open, afters):
        if compare_results(res, base, sep) is not Ordering.GREATER:
            violations.append((before, f"{describe(label)} did not raise q"))
        else:
            margin = min(margin, (res.q - res.radius) - (base.q + base.radius))
    return _report(name, params, violations, margin, notes=[f"instances checked: {count}"])


def _move_suite(name, kind, n_range, sep):
    """Every application of the move `kind` of transforms.MOVES to a
    connected graph of each order must raise q. The move's generator
    yields only the tuples at which it applies, each with its edge edit,
    so each is an instance. Each graph's solve comes from the solved
    levels, and its vector serves both the generator and _raises_q,
    which certifies each edit by the Rayleigh quotient on that vector;
    it builds and solves only the afters the quotient leaves open."""
    befores = ((g, res, transforms.MOVES[kind](g, res.vector)) for g, res in _solved(n_range))
    return _raises_q(name, {"n_range": list(n_range), "sep": sep}, befores, sep,
                     lambda vertices: f"{kind} {vertices}")


def _check_edgeshift(n_range, sep):
    """Every path shift of an H-gadget on a seed of at most 3 vertices,
    with t + s in n_range, must raise q. The shift (t, s) is an edge edit
    of the gadget: P_s's head k = h.n + t leaves its successor (if s >= 2)
    and becomes P_t's tail, giving the gadget on (t+1, s-1)."""
    orders = set(n_range)
    total_cap = max(n_range)
    seeds = [g for k in (1, 2, 3) for g in connected_graphs(k)]
    shifts = [(h_gadget(h, u, t, s), t, s, h.n + t)
              for h in seeds
              for u in range(h.n)
              for s in range(1, total_cap // 2 + 1)
              for t in range(s, total_cap - s + 1) if t + s in orders]
    befores = ((before, res, [((t, s), (k, k + 1) if s > 1 else None, (k - 1, k))])
               for (before, t, s, k), res in zip(shifts, q_indices(b for b, *_ in shifts)))
    return _raises_q("edgeshift", {"n_range": list(n_range), "sep": sep}, befores, sep,
                     lambda ts: "shift t={},s={}".format(*ts))


def claim41_specs(orders):
    """Path-join parts tuples, each descending, orders ascending: every partition
    for n <= 12, and above it 100 partitions drawn from one stream, seeded once.
    An order not an int in _CLAIM41_ORDERS (a bool is none) is a ParameterError."""
    orders = list(orders)
    for n in orders:
        if type(n) is not int or n not in _CLAIM41_ORDERS:
            raise ParameterError(f"claim41 needs orders in {_CLAIM41_ORDERS.start}.."
                                 f"{_CLAIM41_ORDERS.stop - 1}, got {n!r}")
    rng = random.Random(20240817)
    for n in sorted(orders):
        if n <= 12:
            yield from _partitions(n - 1)
        else:
            for _ in range(100):
                yield tuple(sorted(_random_partition(rng, n - 1), reverse=True))


def _partitions(total, cap=None):
    cap = cap or total
    if total == 0:
        yield ()
        return
    for first in range(min(total, cap), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def _random_partition(rng, total):
    parts = []
    while total:
        p = rng.randint(1, total)
        parts.append(p)
        total -= p
    return parts


# 2^13 padded entries per path_join_ratios call: about 200 joins at
# order 40, and a block's solve peaks near 0.45 MB. One block for all
# 2,193 default joins would raise the lemma run's peak memory by 18 %.
_JOIN_ENTRIES = 1 << 13


def _join_blocks(joins):
    """Consecutive blocks of joins, orders ascending, of at most
    _JOIN_ENTRIES padded entries: the join count times (largest order + 1)."""
    block = []
    for parts in joins:
        if block and (len(block) + 1) * (sum(parts) + 2) > _JOIN_ENTRIES:
            yield block
            block = []
        block.append(parts)
    if block:
        yield block


def _check_claim41(n_range, sep):
    """1/q + sep < x_v/x_hub < 1/q + 30/q^2 - sep on each spec's join. Each
    distinct parts tuple is solved once, in one path_join_ratios call per block
    of _join_blocks; no bracket is a violation, named once per distinct join.
    Joins of different orders never coincide: one order's are held at a time."""
    violations = []
    slack = math.inf
    count = 0

    def joins():  # in stream order
        nonlocal count
        for _, specs in groupby(claim41_specs(n_range), key=sum):
            distinct = Counter(specs)
            count += distinct.total()
            yield from distinct

    for block in _join_blocks(joins()):
        q, x, radii = path_join_ratios(block)
        q = q[:, None]
        lo, hi = 1 / q, 1 / q + 30 / (q * q)
        # a join's zero padding, past its own n - 1 entries, is outside
        outside = ~((lo + sep < x) & (x < hi - sep))
        # the slack counts the entries before each join's first one outside
        before = (~outside).cumprod(axis=1) > 0
        before[radii == math.inf] = False
        slack = min(slack, float((x - lo)[before].min(initial=slack)),
                    float((hi - x)[before].min(initial=slack)))
        for i, (join, v) in enumerate(zip(block, before.sum(axis=1).tolist())):
            if radii[i] == math.inf:
                violations.append((join, f"no bracket at q={q[i, 0]}"))
            elif v < sum(join):
                violations.append((join, f"entry x_{v}={x[i, v]} outside ({lo[i, 0]}, {hi[i, 0]})"))
    return _report("claim41", {"n_range": list(n_range), "sep": sep},
                   [(path_join(join), message) for join, message in violations[:20]],
                   slack, notes=[f"specs checked: {count}"])


_CONNECTED = range(1, CONNECTED_CAP + 1)
_WITH_EDGE = range(2, CONNECTED_CAP + 1)
_CLAIM41_ORDERS = range(6, 41)  # claim41 is stated for 6 <= n <= 40

# suite name -> (runner, default n range, orders the suite is defined for).
# The connected-graph suites stop at CONNECTED_CAP; obv, delta and qmu
# need an edge. edgeshift's n is t + s, and its gadgets add t + s
# vertices to seeds of up to 3, within the 64-vertex limit.
_LEMMA_SUITES = {
    "obv": (_check_obv, range(2, 9), range(2, EXHAUSTIVE_CAP + 1)),
    "addedges": (partial(_move_suite, "addedges", "AddEdge"), range(2, 8), _CONNECTED),
    "delta": (_check_delta, range(2, 8), _WITH_EDGE),
    "qmu": (_check_qmu, range(2, 8), _WITH_EDGE),
    "perron": (partial(_move_suite, "perron", "PerronRotate"), range(3, 8), _CONNECTED),
    "edgemove2": (partial(_move_suite, "edgemove2", "LeafReattach"), range(3, 8), _CONNECTED),
    "edgemove3": (partial(_move_suite, "edgemove3", "PendantPull"), range(4, 8), _CONNECTED),
    "edgemove": (partial(_move_suite, "edgemove", "ChordSwap"), range(7, 8), _CONNECTED),
    "edgeshift": (_check_edgeshift, range(2, 9), range(2, 62)),
    "claim41": (_check_claim41, _CLAIM41_ORDERS, _CLAIM41_ORDERS),
}
LEMMA_NAMES = tuple(_LEMMA_SUITES)


def check_lemma(name: str, n_range=None, sep: float = 1e-9) -> VerificationReport:
    """Run one invariant suite over its enumerated class.

    n_range must be nonempty, hold only ints (not bools), repeat no
    order and lie within the orders the suite is defined for, and sep
    must be a number >= 0 (not a bool); else ParameterError.
    """
    check_sep(sep)
    if name not in _LEMMA_SUITES:
        raise ParameterError(f"unknown lemma suite {name!r}; options: {LEMMA_NAMES}")
    runner, default_range, domain = _LEMMA_SUITES[name]
    n_range = list(n_range if n_range is not None else default_range)
    if not n_range or any(type(n) is not int or n not in domain for n in n_range):
        raise ParameterError(
            f"lemma suite {name!r} needs orders in {domain.start}..{domain.stop - 1}, "
            f"got {n_range}"
        )
    if len(set(n_range)) < len(n_range):
        raise ParameterError(f"lemma suite {name!r} got a repeated order in {n_range}")
    return _timed(lambda: runner(n_range, sep))


# -- campaigns --------------------------------------------------------


@dataclass
class CampaignConfig:
    checks: list[str]
    n_min: int = 5
    n_max: int = 9
    sep: float = 1e-9
    out: str = "reports"


def parse_campaign_config(path) -> CampaignConfig:
    cfg = CampaignConfig(checks=[])
    known = {"checks", "n_min", "n_max", "sep", "out"}
    seen = set()
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line=lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in known:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        if key in seen:
            raise ConfigError(f"key {key!r} given twice", line=lineno)
        seen.add(key)
        try:
            if key == "checks":
                cfg.checks = [tok.strip() for tok in value.split(",") if tok.strip()]
            elif key in ("n_min", "n_max"):
                setattr(cfg, key, int(value))
            elif key == "sep":
                cfg.sep = float(value)
                check_sep(cfg.sep)
            else:
                cfg.out = value
        except ValueError as exc:
            raise ConfigError(str(exc), line=lineno) from exc
    if not 1 <= cfg.n_min <= cfg.n_max:
        raise ConfigError(f"need 1 <= n_min <= n_max, got n_min={cfg.n_min}, n_max={cfg.n_max}")
    return cfg


def _campaign_tasks(cfg: CampaignConfig) -> list[tuple[str, Callable[[], VerificationReport]]]:
    """Every (check id, task) of the campaign, in order, before any runs;
    ConfigError if a check id comes twice, as its report would."""
    if not cfg.checks:
        raise ConfigError("no checks to run: give at least one in 'checks = ...'")
    tasks = []
    for token in cfg.checks:
        if token in THEOREMS:
            theorem = THEOREMS[token]
            cells = [] if cfg.n_max > EXHAUSTIVE_CAP else [
                (n, p) for n in range(cfg.n_min, cfg.n_max + 1) for p in theorem.cells(n)]
            if not cells:
                raise ConfigError(f"check {token!r} needs orders in 1..{EXHAUSTIVE_CAP} with at "
                                  f"least one cell, got n_min={cfg.n_min}, n_max={cfg.n_max}")
            tasks += [(theorem.check_id.format(n=n, p=p), partial(theorem.entry, n, p, cfg.sep))
                      for n, p in cells]
        elif token == "lemma" or token.startswith("lemma:"):
            for name in LEMMA_NAMES if token == "lemma" else [token[len("lemma:"):]]:
                if name not in _LEMMA_SUITES:
                    raise ConfigError(f"unknown lemma suite {name!r}")
                tasks.append((f"lemma:{name}", lambda name=name: check_lemma(name, sep=cfg.sep)))
        else:
            raise ConfigError(f"unknown check token {token!r}")
    seen = set()
    for check_id, _ in tasks:
        if check_id in seen:
            raise ConfigError(f"check {check_id!r} is listed twice in 'checks = ...'")
        seen.add(check_id)
    return tasks


def _write_atomically(target: Path, text: str) -> Path:
    """Write target through a temporary file beside it, never partially."""
    partial_file = target.with_name(f".{target.name}.part")
    partial_file.write_text(text, newline="")
    os.replace(partial_file, target)
    return target


def run_campaign(config_path) -> tuple[int, list[Path]]:
    """Execute all configured checks; returns (exit code, written files).

    The whole task list is built and checked before the first task runs.
    Each report is written as soon as its check finishes, and then the
    line `[k/N] <check id> <status> <runtime_ms> ms` goes to stderr;
    summary.csv is written last. The runtime of every report is the time
    its task took here, raising or not. A check that raises gets a report
    with status Error and the exception's first line as its note, and the
    campaign goes on. Exit code is 0 iff no check is Refuted or Error.
    """
    cfg = parse_campaign_config(config_path)
    tasks = _campaign_tasks(cfg)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    summary = io.StringIO()
    writer = csv.writer(summary)
    writer.writerow(["check_id", "status", "margin", "runtime_ms"])
    exit_code = 0
    for k, (check_id, task) in enumerate(tasks, start=1):
        start = time.perf_counter()
        try:
            report = task()
        except Exception as exc:
            first_line = str(exc).partition("\n")[0]
            report = VerificationReport(check_id, {}, ERROR,
                                        notes=[f"{type(exc).__name__}: {first_line}"])
        report.runtime_ms = int((time.perf_counter() - start) * 1000)
        name = report.check_id.replace(":", "_").replace(",", "_").replace("=", "")
        files.append(_write_atomically(out_dir / f"{name}.json", report.to_json()))
        writer.writerow([report.check_id, report.status, report.margin, report.runtime_ms])
        print(f"[{k}/{len(tasks)}] {report.check_id} {report.status} {report.runtime_ms} ms",
              file=sys.stderr)
        exit_code |= report.status in (REFUTED, ERROR)
    files.append(_write_atomically(out_dir / "summary.csv", summary.getvalue()))
    return exit_code, files
