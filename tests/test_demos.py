"""Every demo runs end to end as a script, and so does the README's quick start."""

import pathlib
import re
import runpy

import pytest

ROOT = pathlib.Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quick_start_runs(capsys):
    # the python block of the "Library quick start" section, as written
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {"__name__": "__main__"})
    printed = capsys.readouterr().out.split("\n")
    # the gauge drift of eigenvalues of order 50, roundoff only
    assert float(printed[1]) < 1e-11
