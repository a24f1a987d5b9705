"""Each demo script and each python block of the README runs to
completion in-process, so neither can drift from the API, and each
demo prints exactly its seeded output in ``tests/golden/<demo>.txt``."""

import contextlib
import io
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden"
README_BLOCKS = re.findall(
    r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), flags=re.M | re.S
)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(demo), run_name="__main__")
    assert out.getvalue() == (GOLDEN / f"{demo.stem}.txt").read_text()


@pytest.mark.parametrize(
    "block", README_BLOCKS, ids=[f"block{i}" for i in range(len(README_BLOCKS))]
)
def test_readme_python_block_runs(block):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {"__name__": "__main__"})
    assert out.getvalue()


def test_demos_are_found():
    # an empty glob would parametrize nothing and pass silently
    assert DEMOS
    assert README_BLOCKS
