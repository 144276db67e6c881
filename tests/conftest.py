import os
import subprocess
import sys

import numpy as np
import pytest

import graspscore
from graspscore import with_surface_samples
from graspscore.primitives import (
    make_box,
    make_cylinder,
    make_icosphere,
    make_l_prism,
    make_plate,
)


@pytest.fixture(scope="session")
def cube():
    return with_surface_samples(make_box((0.04, 0.04, 0.04)), seed=0)


@pytest.fixture(scope="session")
def icosphere():
    return with_surface_samples(make_icosphere(0.03, 3), seed=0)


@pytest.fixture(scope="session")
def cylinder():
    return with_surface_samples(make_cylinder(0.02, 0.06, 48), seed=0)


@pytest.fixture(scope="session")
def l_prism():
    return with_surface_samples(make_l_prism(0.02), seed=0)


@pytest.fixture(scope="session")
def plate():
    return with_surface_samples(make_plate((0.06, 0.04, 0.004)), seed=0)


@pytest.fixture(scope="session")
def desk_meshes(cube, icosphere, cylinder, l_prism, plate):
    return {
        "cube": cube,
        "icosphere": icosphere,
        "cylinder": cylinder,
        "l_prism": l_prism,
        "plate": plate,
    }


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random rotation from QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def run_python(*argv, cwd):
    """Run ``python *argv`` in a child process under ``cwd``.

    The child gets a copy of this process's environment with the directory
    holding the imported ``graspscore`` package put first on ``PYTHONPATH``,
    so it runs the same code the in-process assertions compare against even
    when ``cwd`` would make a relative ``PYTHONPATH`` entry point elsewhere.
    """
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(graspscore.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv],
                          capture_output=True, text=True, cwd=str(cwd), env=env)


def run_cli(*argv, cwd):
    """Run ``python -m graspscore.cli *argv`` in a child process under ``cwd``."""
    return run_python("-m", "graspscore.cli", *argv, cwd=cwd)
