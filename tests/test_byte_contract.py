"""The byte contract: what ``label``, ``rescore`` and ``eval`` write from
the committed inputs under ``tests/data``, by sha256, against the record
in ``tests/data/digests.json``.

Some outputs go through numpy's BLAS (``@``, ``np.linalg.norm``,
``np.vecdot``), and OpenBLAS picks a kernel per CPU whose rounding can
differ, so the record is keyed by the kernel's core name
(``_blas.openblas_core``). A kernel with no record passes only if it
writes one recorded set of digests; otherwise the failure prints its core
name and digests, so that a new kernel is recorded on purpose. A record
is made by running this test with ``OPENBLAS_CORETYPE`` set in its
environment, which the child processes inherit.

The inputs are committed, not generated: building them takes ``@`` and
1-D norms too, whose bytes vary with the kernel.
"""

import hashlib
import json
import os

import pytest

from _blas import openblas_core
from conftest import run_cli

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
MESHES = ("cube", "l_prism", "plate", "cylinder", "icosphere3")


def output_digests(workdir) -> dict[str, str]:
    """Run every command of the contract under ``workdir``; output file
    name -> sha256."""
    runs = [["label", os.path.join(DATA, f"{name}.obj"), "--config", os.path.join(DATA, "grid.cfg"),
             "--out", f"label_{name}.csv"] for name in MESHES]
    runs.append(["rescore", "label_l_prism.csv", "--weights", "0.4,0.3,0.2,0.1", "--out", "rescore_l_prism.csv"])
    runs.append(["eval", os.path.join(DATA, "predictions.csv"), "--scene", os.path.join(DATA, "scene.json"),
                 "--meshes", DATA, "--out", "eval_report.json"])
    for argv in runs:
        res = run_cli(*argv, cwd=workdir)
        assert res.returncode == 0, res.stderr
    return {name: hashlib.sha256(open(os.path.join(workdir, name), "rb").read()).hexdigest()
            for name in sorted(os.listdir(workdir))}


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return output_digests(tmp_path_factory.mktemp("contract"))


def test_outputs_match_the_record_of_this_blas_kernel(digests):
    with open(os.path.join(DATA, "digests.json"), encoding="ascii") as fh:
        record = json.load(fh)
    core = openblas_core()
    got = f"openblas core {core} wrote {json.dumps(digests, indent=2)}"
    if core in record:
        assert digests == record[core], got
    else:
        assert digests in record.values(), f"no record for this kernel, and no recorded set matches: {got}"
