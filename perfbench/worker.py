"""One cold iteration of a workload, in its own interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED TRACE TMPDIR RESULT [--setup-only]

Imports qouter from the checkout's ``src``, builds the workload's inputs,
notes the moment it is ready (``time.monotonic``, which every process on
the host shares, so the parent can subtract its launch time), runs the
ops between two timings of the host-speed kernel, checks the outputs and
writes one JSON result to RESULT.
"""

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv: list[str]) -> int:
    name, seed, trace, tmp, result_path = argv[:5]
    seed, trace = int(seed), trace == "1"
    import qouter  # noqa: F401  (set-up time includes the package import)
    from hostspeed import kernel_seconds
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, Path(tmp))
    ready = time.monotonic()
    result = {"ready": ready, "kernel_s": kernel_seconds()}
    if "--setup-only" in argv:
        Path(result_path).write_text(json.dumps(result))
        return 0

    latencies: list[float] = []

    def timed(fn):
        def op(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                latencies.append((time.perf_counter() - start) * 1000.0)
        return op

    tracer = Tracer()
    if trace:
        tracer.install()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        workload.run(timed)
    finally:
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        tracer.uninstall()
    result["kernel_s"] = (result["kernel_s"] + kernel_seconds()) / 2
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outputs = workload.outputs()
    reference = json.loads((Path(__file__).parent / "reference.json").read_text())
    failed, problems = workload.check(outputs, reference)
    result.update({
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": rss_mb,
        "op_ms": latencies,
        "failed": failed,
        "problems": problems,
        "outputs": outputs,
        "trace": tracer.metrics() if trace else None,
    })
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
