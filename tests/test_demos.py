"""Smoke tests: every demo script and the README example run clean, and the public API resolves."""

import glob
import os
import re

import pytest

import graspscore

from conftest import run_python

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs_clean(path, tmp_path):
    result = run_python(os.path.abspath(path), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stdout + result.stderr
    assert result.stdout.strip()


def test_readme_example_runs_clean(tmp_path):
    """The README's one python block ("Library use"), run as a demo is."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    script = tmp_path / "readme_example.py"
    script.write_text(blocks[0])
    result = run_python(str(script), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stdout + result.stderr
    assert result.stdout.strip()


def test_public_names_resolve():
    missing = [name for name in graspscore.__all__ if not hasattr(graspscore, name)]
    assert not missing
    assert len(set(graspscore.__all__)) == len(graspscore.__all__)
