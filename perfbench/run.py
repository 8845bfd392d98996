"""qouter benchmark: cold-start workloads, end-to-end metrics, traced per-layer run.

Usage (from the repository root):

    python3 perfbench/run.py --workload {campaign,lemmas,ascent,all} \
        --seed N --seconds S --trace {0,1}

Every iteration runs in a fresh single-threaded interpreter
(``worker.py``), so qouter's caches start cold as they do for each CLI
call. With ``--trace 0`` the run repeats untraced iterations for about S
seconds and reports the end-to-end metrics. With ``--trace 1`` it
alternates untraced and traced iterations on the same inputs and reports
the per-layer metrics; it also checks that both give identical outputs
and that every layer the workload is meant to reach was reached.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REFERENCE_S
from tracer import LAYERS, METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

OPS = {"campaign": 66, "lemmas": 7, "ascent": 3}
# Fewest iterations per run, whatever --seconds says.
MIN_ITERATIONS = {"campaign": 3, "lemmas": 2, "ascent": 4}
SETUP_PROBES = 5
TAIL_LEVELS = (99.9, 99, 95, 90, 75, 50, 25, 10)
RUN_LIMIT_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# Layers each workload must reach in a traced run (the "on" side of the
# map in README.md), and the calls that must stay at zero.
REACHES = {
    "campaign": ("graphs", "canon", "graph6", "recognition", "constructions",
                 "enumeration", "harness", "cli"),
    "lemmas": ("canon", "spectral", "constructions", "transforms", "enumeration"),
    "ascent": ("graphs", "recognition", "transforms"),
}
ZERO = {"ascent": ("canon.labeling_calls", "enumeration.generate_calls")}


class Runner:
    """Launches worker iterations inside one temporary directory."""

    def __init__(self, workload: str, seed: int, tmp: Path):
        self.workload, self.seed, self.tmp = workload, seed, tmp
        # a run must end well within the 180 s it is allowed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.launches = 0

    def launch(self, trace: bool = False, setup_only: bool = False) -> dict:
        """One worker process; returns its result plus ``setup_s`` and ``elapsed_s``."""
        self.launches += 1
        work = self.tmp / f"it{self.launches}"
        work.mkdir()
        result_path = work / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), self.workload, str(self.seed),
               "1" if trace else "0", str(work), str(result_path)]
        if setup_only:
            cmd.append("--setup-only")
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=max(1.0, self.deadline - start))
            error = proc.stderr[-2000:] if proc.returncode else None
        except subprocess.TimeoutExpired:
            error = "worker timed out"
        elapsed = time.monotonic() - start
        if error is None and result_path.exists():
            result = json.loads(result_path.read_text())
        else:
            result = {"error": error or "worker wrote no result"}
        shutil.rmtree(work)
        result["elapsed_s"] = elapsed
        if "ready" in result:
            result["setup_s"] = result["ready"] - start
        return result


def _tail(values: list[float]) -> tuple[float, str]:
    """Nearest-rank value at the highest level with ten values beyond it.

    With ten values or fewer no level qualifies, and the slowest is taken.
    """
    ordered = sorted(values)
    for level in TAIL_LEVELS:
        rank = math.ceil(level / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return ordered[rank - 1], f"p{level:g} of {len(ordered)} ops, {len(ordered) - rank} beyond"
    return ordered[-1], f"slowest of {len(ordered)} ops"


def _host_factor(result: dict) -> float:
    """Scales a launch's times to the reference host speed (see hostspeed.py)."""
    return REFERENCE_S / result["kernel_s"]


def _more(done: list[float], started: float, seconds: int, minimum: int) -> bool:
    """Whether to start another iteration: the minimum, then while one fits."""
    if len(done) < minimum:
        return True
    return time.monotonic() - started + statistics.median(done) <= seconds


def _tally(results: list[dict], workload: str) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    problems = []
    for r in results:
        attempted += OPS[workload]
        if "error" in r:
            failed += OPS[workload]
            problems.append(r["error"])
        else:
            failed += r["failed"]
            problems += r["problems"]
    return attempted, failed, problems


def measure(runner: Runner, seconds: int) -> tuple[dict, list[dict], dict]:
    """Untraced iterations for about `seconds`; returns metrics, results, notes.

    Every time is scaled by its own launch's host factor. Every iteration
    runs the same ops, so each op's latency is its median over the
    iterations, and the op metrics are taken over those per-op medians.
    """
    workload = runner.workload
    runner.launch(setup_only=True)  # compiles bytecode; not measured
    probes = [runner.launch(setup_only=True) for _ in range(SETUP_PROBES)]
    started = time.monotonic()
    results: list[dict] = []
    while _more([r["elapsed_s"] for r in results], started, seconds, MIN_ITERATIONS[workload]):
        results.append(runner.launch())
        if "error" in results[-1] or time.monotonic() > runner.deadline:
            break
    setups = [r["setup_s"] * _host_factor(r) for r in probes + results if "setup_s" in r]
    ok = [r for r in results if "error" not in r]
    if not ok or not setups:
        return {}, results, {}
    ops = [statistics.median(times) for times in
           zip(*([ms * _host_factor(r) for ms in r["op_ms"]] for r in ok))]
    tail, tail_note = _tail(ops)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] * _host_factor(r) for r in ok),
        "cpu_s": statistics.median(r["cpu_s"] * _host_factor(r) for r in ok),
        "op_p50_ms": statistics.median(ops),
        "op_tail_ms": tail,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in ok),
    }
    raw_wall = statistics.median(r["wall_s"] for r in ok)
    host = statistics.median(_host_factor(r) for r in ok)
    notes = {
        "setup_s": f"median of {len(setups)} launches",
        "wall_s": f"median of {len(ok)} iterations; unscaled {raw_wall:.4f} s, host factor {host:.3f}",
        "cpu_s": f"median of {len(ok)} iterations",
        "op_p50_ms": f"median of {len(ops)} per-op medians",
        "op_tail_ms": f"{tail_note}, per-op medians",
        "peak_rss_mb": f"max of {len(ok)} iterations",
    }
    return metrics, results, notes


def measure_traced(runner: Runner, seconds: int) -> tuple[dict, list[dict], list[str]]:
    """Untraced/traced pairs on the same inputs; per-layer metrics and self-test."""
    workload = runner.workload
    runner.launch(setup_only=True)
    started = time.monotonic()
    plain: list[dict] = []
    traced: list[dict] = []
    pair_times: list[float] = []
    while _more(pair_times, started, seconds, 1):
        plain.append(runner.launch())
        traced.append(runner.launch(trace=True))
        pair_times.append(plain[-1]["elapsed_s"] + traced[-1]["elapsed_s"])
        if any("error" in r for r in (plain[-1], traced[-1])) or time.monotonic() > runner.deadline:
            break
    problems = []
    for a, b in zip(plain, traced):
        if "error" not in a and "error" not in b and a["outputs"] != b["outputs"]:
            problems.append("traced and untraced runs gave different outputs")
    ok = [r for r in traced if "error" not in r]
    if not ok or any("error" in r for r in plain):
        return {}, plain + traced, problems
    metrics = {name: statistics.median(r["trace"][name] for r in ok)
               for name, _, _ in METRICS if name != "trace.overhead_frac"}
    metrics["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] * _host_factor(r) for r in ok)
        / statistics.median(r["wall_s"] * _host_factor(r) for r in plain) - 1.0)
    for layer in REACHES[workload]:
        if metrics[f"{layer}.calls"] == 0:
            problems.append(f"self-test: {workload} made no {layer} calls")
    for name in ZERO.get(workload, ()):
        if metrics[name] != 0:
            problems.append(f"self-test: {workload} has {name} = {metrics[name]:g}")
    return metrics, plain + traced, problems


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    tmp = ROOT / ".perfbench_tmp" / f"{workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        runner = Runner(workload, seed, tmp)
        if trace:
            metrics, results, problems = measure_traced(runner, seconds)
        else:
            metrics, results, notes = measure(runner, seconds)
            problems = []
    finally:
        shutil.rmtree(tmp)
        if not any((ROOT / ".perfbench_tmp").iterdir()):
            (ROOT / ".perfbench_tmp").rmdir()
    attempted, failed, failures = _tally(results, workload)
    problems = failures + problems
    iterations = sum("error" not in r for r in results)
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  iterations {iterations}")
    walls = " ".join(f"{r['wall_s']:.3f}" for r in results if "wall_s" in r)
    print(f"  iteration wall_s: {walls}" + ("  (untraced, then traced)" if trace else ""))
    if trace:
        _print_layers(metrics)
    else:
        for name, unit in END_TO_END:
            if name in metrics:
                print(f"  {name:<14}{metrics[name]:>14.6f} {unit:<3} ({notes[name]})")
    print(f"  failed_frac   {failed / attempted if attempted else 1.0:>14.6f}     "
          f"({failed}/{attempted} ops)")
    for problem in problems[:20]:
        print(f"  problem: {problem}")
    units = {name: unit for name, unit, _ in METRICS} if trace else dict(END_TO_END)
    return {
        "correct": failed == 0 and not problems and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }


def _print_layers(metrics: dict) -> None:
    if not metrics:
        return
    total = sum(metrics[f"{layer}.s"] for layer in LAYERS)
    print("  layer          calls      self_s  share")
    for layer in LAYERS:
        share = metrics[f"{layer}.s"] / total if total else 0.0
        print(f"  {layer:<13}{metrics[f'{layer}.calls']:>8.0f}{metrics[f'{layer}.s']:>12.4f}"
              f"{share:>7.1%}")
    for name, unit, _ in METRICS:
        if not name.endswith((".calls", ".s")):
            print(f"  {name:<40}{metrics[name]:>16.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*OPS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qouter" / "__init__.py").is_file():
        print(f"qouter sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(OPS) if args.workload == "all" else [args.workload]
    reports = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(names) == 1:
        summary = reports[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in reports.values()),
            "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": sum(r["failed"] for r in reports.values()),
            "metrics": {f"{w}.{k}": v for w, r in reports.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
