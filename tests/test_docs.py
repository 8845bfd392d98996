"""The examples in README.md run as printed."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    q, verdict = out.getvalue().splitlines()
    assert abs(float(q) - 7.372281323269014) < 1e-9  # q(K_1 v 3P_2)
    unique, margin = verdict.split()
    assert unique == "True" and float(margin) > 0.1
