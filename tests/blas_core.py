"""The OpenBLAS core (kernel set) that numpy's bundled OpenBLAS runs on.

OpenBLAS picks its core from the CPU when it loads, unless the
OPENBLAS_CORETYPE environment variable names one. Dot products round
differently on different cores, and tie-heavy byte pins can follow, so
their failure messages name the core. Run this file to print it.
"""

import ctypes
import glob
import os

import numpy as np

# The getter as numpy >= 2 (scipy-openblas) and numpy 1.x wheels export it.
_GETTERS = ("scipy_openblas_get_corename64_", "openblas_get_corename64_")


def openblas_core() -> str:
    """The core name, or "unknown" when numpy bundles no OpenBLAS that
    exports a known getter. Never raises."""
    try:
        libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            lib = ctypes.CDLL(path)  # the copy numpy has already loaded
            for name in _GETTERS:
                getter = getattr(lib, name, None)
                if getter is not None:
                    getter.restype = ctypes.c_char_p
                    return getter().decode()
    except Exception:  # a diagnostic must not fail the run it describes
        pass
    return "unknown"


if __name__ == "__main__":
    print(f"OpenBLAS core: {openblas_core()}")
