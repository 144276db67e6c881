"""Smoke tests: every demo script runs clean, and the public API resolves."""

import glob
import os

import pytest

import graspscore

from conftest import run_python

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "demos", "*.py")))


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs_clean(path, tmp_path):
    result = run_python(os.path.abspath(path), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stdout + result.stderr
    assert result.stdout.strip()


def test_public_names_resolve():
    missing = [name for name in graspscore.__all__ if not hasattr(graspscore, name)]
    assert not missing
    assert len(set(graspscore.__all__)) == len(graspscore.__all__)
