"""Record reference.json from the current program.

Usage: python3 perfbench/record_reference.py

Run once per intended change of outputs; the benchmark compares every run
with this file. The ascent reference covers the default seed; other seeds
are checked by invariants only.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

def _outputs(name: str, seed: int) -> dict:
    tmp = Path(tempfile.mkdtemp(dir=HERE.parent))
    try:
        workload = WORKLOADS[name](seed, tmp)
        workload.run(lambda fn: fn)
        return workload.outputs()
    finally:
        shutil.rmtree(tmp)


def main() -> None:
    campaign = _outputs("campaign", DEFAULT_SEED)
    lemmas = _outputs("lemmas", DEFAULT_SEED)
    reference = {
        "campaign": {
            "connected_outerplanar_sizes": campaign["connected_outerplanar_sizes"],
            "checks": [{k: c[k] for k in ("check_id", "status", "witnesses")}
                       for c in campaign["checks"]],
        },
        "lemmas": {
            "connected_sizes": lemmas["connected_sizes"],
            "suites": {name: {k: s[k] for k in ("status", "notes")}
                       for name, s in lemmas["suites"].items()},
        },
        "ascent": {
            "seed": DEFAULT_SEED,
            "ascents": _outputs("ascent", DEFAULT_SEED)["ascents"],
        },
    }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
