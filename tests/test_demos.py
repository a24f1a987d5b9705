"""Each demo script and each python block of the README runs to
completion in-process, so neither can drift from the API, each demo
prints exactly its seeded output in ``tests/golden/<demo>.txt``, and
each package name the README gives resolves."""

import contextlib
import importlib
import io
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden"
README = (ROOT / "README.md").read_text()
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, flags=re.M | re.S)
#: Each backticked ``module.name`` or ``module.name.attr`` of the package,
#: such as `mechanisms._ReadAheadPair._scored`.
README_NAMES = sorted(set(re.findall(
    r"`(cli|distributions|fixtures|fullinfo|harness|mechanisms|noinfo|outcomes|randomprivacy)"
    r"\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`", README)))


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


def test_every_dotted_name_the_readme_gives_resolves():
    # a refactor that deletes or renames a documented private name fails here
    assert len(README_NAMES) >= 20
    missing = []
    for module, name, attr in README_NAMES:
        owner = getattr(importlib.import_module(f"dpaudit.{module}"), name, None)
        if owner is None or (attr and not hasattr(owner, attr)):
            missing.append(".".join(filter(None, (module, name, attr))))
    assert missing == []
