"""The name of the kernel numpy's bundled OpenBLAS runs on this CPU.

Which kernel runs decides some output bytes (see test_byte_contract.py),
so the byte record is keyed by this name. ``OPENBLAS_CORETYPE`` in a
process's environment forces another kernel in that process. Run as a
script, this prints the name, as CI's Versions step does.
"""

import ctypes
import glob
import os

import numpy


def openblas_core() -> str:
    """The core name numpy's OpenBLAS reports, or ``unknown`` when numpy
    carries no OpenBLAS that names it."""
    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*.so")
    for path in sorted(glob.glob(pattern)):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


if __name__ == "__main__":
    print(openblas_core())
