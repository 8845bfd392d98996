"""The three benchmark workloads: inputs, ops, outputs and their checks.

A workload object is built in a fresh interpreter after ``import qouter``.
Its constructor makes the inputs, ``run`` performs the ops through
``timed`` (which records one latency per op), ``outputs`` returns a
JSON-able summary, and ``check`` compares that summary with the reference
recorded in ``reference.json`` and returns the number of failed ops and a
list of problems.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from pathlib import Path

import qouter
from qouter import cli, harness, transforms

DEFAULT_SEED = 1
SEP = 1e-9


def _code(g) -> str:
    return qouter.canonical_code(g).hex()


def _class_sizes(generate, orders) -> list[int]:
    return [len(generate(n)) for n in orders]


class Campaign:
    """``qouter campaign`` over cycle, path and structural checks, n = 5..8."""

    check_functions = ("verify_cycle_theorem", "verify_path_theorem", "structural_check")

    def __init__(self, seed: int, tmp: Path):
        del seed  # the campaign has fixed inputs
        self.out = tmp / "reports"
        self.config = tmp / "campaign.cfg"
        # no `jobs` key: the serial default
        self.config.write_text(
            "checks = cycle, path, structural\n"
            "n_min = 5\n"
            "n_max = 8\n"
            f"sep = {SEP!r}\n"
            f"out = {self.out}\n"
        )
        self.exit_code = None
        self.error = None

    def run(self, timed) -> None:
        # The campaign's tasks look the check functions up in harness at
        # call time, so wrapping them there times each check.
        saved = {name: getattr(harness, name) for name in self.check_functions}
        for name, fn in saved.items():
            setattr(harness, name, timed(fn))
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                self.exit_code = cli.main(["campaign", str(self.config)])
        except Exception as exc:  # the run reports the failure and goes on
            self.error = repr(exc)
        finally:
            for name, fn in saved.items():
                setattr(harness, name, fn)

    def outputs(self) -> dict:
        checks = []
        summary = self.out / "summary.csv"
        rows = list(csv.DictReader(summary.open())) if summary.exists() else []
        for row in rows:
            name = row["check_id"].replace(":", "_").replace(",", "_").replace("=", "")
            report = json.loads((self.out / f"{name}.json").read_text())
            checks.append({
                "check_id": report["check_id"],
                "status": report["status"],
                "witnesses": [_code(qouter.graph6_decode(w)) for w in report["witness_graphs"]],
                "q_values": report["q_values"],
                "margin": report["margin"],
            })
        return {
            "exit_code": self.exit_code,
            "error": self.error,
            "checks": checks,
            "connected_outerplanar_sizes": _class_sizes(qouter.connected_outerplanar, range(1, 9)),
        }

    def check(self, outputs: dict, reference: dict) -> tuple[int, list[str]]:
        ref = reference["campaign"]
        problems = []
        if outputs["error"] is not None or outputs["exit_code"] != 0:
            problems.append(f"campaign exit {outputs['exit_code']}, error {outputs['error']}")
        if outputs["connected_outerplanar_sizes"] != ref["connected_outerplanar_sizes"]:
            problems.append(f"class sizes {outputs['connected_outerplanar_sizes']}")
        got = {c["check_id"]: c for c in outputs["checks"]}
        failed = 0
        for want in ref["checks"]:
            have = got.get(want["check_id"])
            if have is None or (have["status"], have["witnesses"]) != (
                    want["status"], want["witnesses"]):
                failed += 1
                problems.append(f"{want['check_id']}: {have and have['status']}")
        return failed, problems


class Lemmas:
    """``harness.check_lemma`` for seven suites at their default ranges."""

    names = ("perron", "edgemove2", "edgemove3", "delta", "qmu", "edgeshift", "claim41")

    def __init__(self, seed: int, tmp: Path):
        del seed, tmp  # the suites have fixed inputs
        self.reports = {}

    def run(self, timed) -> None:
        for name in self.names:
            try:
                self.reports[name] = timed(harness.check_lemma)(name)
            except Exception as exc:  # the run reports the failure and goes on
                self.reports[name] = repr(exc)

    def outputs(self) -> dict:
        suites = {}
        for name, report in self.reports.items():
            if isinstance(report, str):
                suites[name] = {"error": report}
            else:
                suites[name] = {"status": report.status, "notes": report.notes,
                                "margin": report.margin}
        return {
            "suites": suites,
            "connected_sizes": _class_sizes(qouter.connected_graphs, range(1, 8)),
        }

    def check(self, outputs: dict, reference: dict) -> tuple[int, list[str]]:
        ref = reference["lemmas"]
        problems = []
        if outputs["connected_sizes"] != ref["connected_sizes"]:
            problems.append(f"class sizes {outputs['connected_sizes']}")
        failed = 0
        for name in self.names:
            have, want = outputs["suites"].get(name, {}), ref["suites"][name]
            if (have.get("status"), have.get("notes")) != (want["status"], want["notes"]):
                failed += 1
                problems.append(f"{name}: {have}")
        return failed, problems


class Ascent:
    """``greedy_ascent`` from three random recursive trees drawn from the seed."""

    specs = ((20, "C4"), (20, "C5"), (18, "2P3"))

    def __init__(self, seed: int, tmp: Path):
        del tmp
        self.seed = seed
        rng = random.Random(seed)
        self.inputs = [(self._tree(rng, n), qouter.ForbiddenPattern.parse(p))
                       for n, p in self.specs]
        self.results = []

    @staticmethod
    def _tree(rng: random.Random, n: int):
        """Random recursive tree: the parent of v is uniform in [0, v)."""
        return qouter.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])

    def run(self, timed) -> None:
        for g, pattern in self.inputs:
            try:
                self.results.append(timed(transforms.greedy_ascent)(g, pattern))
            except Exception as exc:  # the run reports the failure and goes on
                self.results.append(repr(exc))

    def outputs(self) -> dict:
        ascents = []
        for (g, pattern), result in zip(self.inputs, self.results):
            if isinstance(result, str):
                ascents.append({"error": result})
                continue
            final, trace = result
            ascents.append({
                "pattern": str(pattern),
                "seed": _code(g),
                "final": _code(final),
                "trace": [[s.move.kind, list(s.move.vertices), s.q] for s in trace],
            })
        return {"seed": self.seed, "ascents": ascents}

    def check(self, outputs: dict, reference: dict) -> tuple[int, list[str]]:
        ref = reference["ascent"]
        recorded = ref["ascents"] if self.seed == ref["seed"] else None
        problems = []
        failed = 0
        for i, ((g, pattern), result, have) in enumerate(
                zip(self.inputs, self.results, outputs["ascents"])):
            bad = self._invariants(g, pattern, result)
            if not bad and recorded is not None:
                want = recorded[i]
                same_moves = [s[:2] for s in have["trace"]] == [s[:2] for s in want["trace"]]
                close = all(abs(a[2] - b[2]) <= SEP for a, b in zip(have["trace"], want["trace"]))
                if (have["seed"], have["final"]) != (want["seed"], want["final"]) \
                        or not same_moves or not close:
                    bad = "differs from the recorded ascent"
            if bad:
                failed += 1
                problems.append(f"ascent {i} ({pattern}): {bad}")
        return failed, problems

    @staticmethod
    def _invariants(g, pattern, result) -> str:
        """Why the ascent breaks a property every seed has, or ''."""
        if isinstance(result, str):
            return result
        final, trace = result
        if not final.is_connected() or not qouter.is_outerplanar(final):
            return "final graph not connected outerplanar"
        # Every accepted move yields a pattern-free graph. A seed that
        # contains the pattern and admits no move (the 18-vertex tree with
        # 2P3) comes back unchanged.
        if trace and not qouter.is_f_free(final, pattern):
            return "final graph contains the pattern"
        if not trace and final != g:
            return "empty trace but the graph changed"
        qs = [qouter.q_index(g).q] + [step.q for step in trace]
        if any(b <= a for a, b in zip(qs, qs[1:])):
            return "Q does not strictly increase along the trace"
        return ""


WORKLOADS = {"campaign": Campaign, "lemmas": Lemmas, "ascent": Ascent}
