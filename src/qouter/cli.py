"""Command-line surface: construct, spectral, enumerate, ascend, verify,
lemma, campaign. Graph I/O is graph6 lines; reports are JSON."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import harness
from .constructions import cycle_extremal, path_extremal, path_join
from .enumeration import EnumerationClass, enumerate_class
from .errors import CapacityError, ConfigError, ParameterError, check_max_steps
from .graph6 import graph6_decode, graph6_encode
from .recognition import ForbiddenPattern
from .spectral import q_index, q_indices
from .transforms import greedy_ascent


def _read_graphs(source: str):
    if source == "-":
        source, lines = "stdin", sys.stdin.read().splitlines()
    else:
        lines = Path(source).read_text().splitlines()
    graphs = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            graphs.append(graph6_decode(line))
        except ValueError as exc:
            raise ParameterError(f"{source} line {lineno}: {line.strip()!r}: {exc}") from exc
    return graphs


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qouter",
        description="Q-index extremal constructions, enumeration, and verification "
        "for connected outerplanar graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit an extremal candidate as graph6")
    p.add_argument("kind", choices=["cycle", "path", "join"])
    p.add_argument("--n", type=int)
    p.add_argument("--pattern", help="C<ell> or <t>P<ell>")
    p.add_argument("--parts", help="comma-separated path orders for kind=join")

    p = sub.add_parser("spectral", help="Q-index of graph6 input: graph6,q,radius lines")
    p.add_argument("--graph6", default="-", help="file of graph6 lines, or - for stdin")

    p = sub.add_parser("enumerate", help="stream a graph class as graph6 lines")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pattern")
    p.add_argument("--count-only", action="store_true", help="emit CSV counts instead")

    p = sub.add_parser("ascend", help="greedy Q-increasing ascent; JSON trace")
    p.add_argument("--graph6", default="-")
    p.add_argument("--pattern")
    p.add_argument("--max-steps", type=int, default=1000)

    p = sub.add_parser("verify", help="theorem-level verification report")
    p.add_argument("kind", choices=list(harness.THEOREMS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--sep", type=float, default=1e-9)
    p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = sub.add_parser("lemma", help="run one lemma invariant suite")
    p.add_argument("name", choices=list(harness.LEMMA_NAMES))
    p.add_argument("--n-min", type=int)
    p.add_argument("--n-max", type=int)
    p.add_argument("--sep", type=float, default=1e-9)
    p.add_argument("--out")

    p = sub.add_parser("campaign", help="run a configured check campaign")
    p.add_argument("config")

    return parser


def _cmd_construct(args) -> int:
    if args.kind == "join":
        if not args.parts:
            raise ParameterError("construct join requires --parts")
        try:
            parts = [int(tok) for tok in args.parts.split(",")]
        except ValueError as exc:
            raise ParameterError(f"--parts {args.parts!r}: {exc}") from exc
        print(graph6_encode(path_join(parts)))
        return 0
    if args.n is None or args.pattern is None:
        raise ParameterError("construct cycle/path requires --n and --pattern")
    pattern = ForbiddenPattern.parse(args.pattern)
    if args.kind == "cycle":
        if pattern.kind != "cycle":
            raise ParameterError("construct cycle needs a C<ell> pattern")
        g, alpha, r = cycle_extremal(args.n, pattern.ell)
    else:
        if pattern.kind != "paths":
            raise ParameterError("construct path needs a <t>P<ell> pattern")
        g, alpha, r = path_extremal(args.n, pattern.t, pattern.ell)
    print(graph6_encode(g))
    print(f"alpha={alpha} r={r}", file=sys.stderr)
    return 0


def _cmd_spectral(args) -> int:
    graphs = _read_graphs(args.graph6)
    for g, res in zip(graphs, q_indices(graphs)):
        print(f"{graph6_encode(g)},{res.q:.12f},{res.radius:.3e}")
    return 0


def _cmd_enumerate(args) -> int:
    pattern = ForbiddenPattern.parse(args.pattern) if args.pattern else None
    if args.count_only:
        count = sum(1 for _ in enumerate_class(EnumerationClass(args.n, pattern)))
        print("n,pattern,count")
        print(f"{args.n},{pattern or ''},{count}")
        return 0
    for g in enumerate_class(EnumerationClass(args.n, pattern)):
        print(graph6_encode(g))
    return 0


def _cmd_ascend(args) -> int:
    check_max_steps(args.max_steps)  # before the input, which may hold no graph
    graphs = _read_graphs(args.graph6)
    pattern = ForbiddenPattern.parse(args.pattern) if args.pattern else None
    out = []
    for g in graphs:
        final, trace = greedy_ascent(g, pattern, args.max_steps)
        out.append(
            {
                "seed": graph6_encode(g),
                "final": graph6_encode(final),
                "q_final": trace[-1].q if trace else q_index(final).q,
                "trace": [
                    {"kind": step.move.kind, "vertices": list(step.move.vertices), "q": step.q}
                    for step in trace
                ],
            }
        )
    print(json.dumps(out, indent=2))
    return 0


def _emit_report(report, out) -> int:
    text = report.to_json()
    if out:
        harness._write_atomically(Path(out), text)
    else:
        print(text)
    return 1 if report.status == harness.REFUTED else 0


def _cmd_verify(args) -> int:
    report = harness._run_cell(args.kind, args.n, ForbiddenPattern.parse(args.pattern), args.sep)
    return _emit_report(report, args.out)


def _cmd_lemma(args) -> int:
    if (args.n_min is None) != (args.n_max is None):
        raise ParameterError("lemma requires both --n-min and --n-max, or neither")
    n_range = None if args.n_min is None else range(args.n_min, args.n_max + 1)
    report = harness.check_lemma(args.name, n_range, args.sep)
    return _emit_report(report, args.out)


def _cmd_campaign(args) -> int:
    code, files = harness.run_campaign(args.config)
    for f in files:
        print(f)
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "construct": _cmd_construct,
        "spectral": _cmd_spectral,
        "enumerate": _cmd_enumerate,
        "ascend": _cmd_ascend,
        "verify": _cmd_verify,
        "lemma": _cmd_lemma,
        "campaign": _cmd_campaign,
    }
    try:
        return handlers[args.command](args)
    except (ParameterError, CapacityError, ConfigError, OSError) as exc:
        print(f"qouter: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
