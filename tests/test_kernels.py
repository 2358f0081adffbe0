"""The two compiled scipy modules the package calls are loaded from their
extension files, without the `__init__` of `scipy.optimize` and
`scipy.sparse`, and are the very modules those packages import, whichever
is imported first. Each check runs in a fresh interpreter, since this
process has imported scipy's packages already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from netalign import _kernels

KERNELS = ("scipy.optimize._lsap", "scipy.sparse._sparsetools")
# Modules the package's import used to load and never called.
UNUSED = ("scipy.linalg", "scipy.optimize._optimize", "scipy.sparse._base",
          "concurrent.futures.process")


def route() -> str:
    """How `_kernels.extension_module` loads the kernels on this scipy."""
    if all(_kernels.extension_file(name) for name in KERNELS):
        return "extension files"
    return "fallback import"


def run_script(script: str, *args: str) -> dict:
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    result = subprocess.run([sys.executable, "-c", script, *args],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


# Imports argv[1], lists which of argv[2:] are loaded, then imports scipy's
# packages and checks the package holds their functions.
FRESH_IMPORT_SCRIPT = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
loaded = [name for name in sys.argv[2:] if name in sys.modules]
import scipy.optimize, scipy.sparse
from netalign import operator, rounding, selftest
print(json.dumps({
    "loaded": loaded,
    "own": [rounding.linear_sum_assignment is scipy.optimize.linear_sum_assignment,
            selftest.linear_sum_assignment is scipy.optimize.linear_sum_assignment,
            operator._sparsetools is sys.modules["scipy.sparse._sparsetools"]],
}))
"""


@pytest.mark.parametrize("module", ["netalign", "netalign.cli"])
def test_fresh_import_loads_only_the_kernels(module):
    print(f"kernels loaded through the {route()}")
    report = run_script(FRESH_IMPORT_SCRIPT, module, *UNUSED)
    assert report["own"] == [True, True, True], route()
    if route() == "extension files":
        assert report["loaded"] == []


# Hides the extension files from `_kernels.extension_file` (it looks beside
# `scipy.__file__`, the import system along `scipy.__path__`), imports the
# package, then checks it imported scipy's packages for their kernels.
FALLBACK_SCRIPT = """
import json, sys
import scipy
scipy.__file__ = "/nonexistent/scipy/__init__.py"
from netalign import _kernels, operator, rounding
packages = [name in sys.modules for name in ("scipy.optimize", "scipy.sparse")]
import scipy.optimize
print(json.dumps({
    "files": [_kernels.extension_file(name) for name in sys.argv[1:]],
    "packages": packages,
    "own": [rounding.linear_sum_assignment is scipy.optimize.linear_sum_assignment,
            operator._sparsetools is sys.modules["scipy.sparse._sparsetools"]],
}))
"""


def test_fallback_imports_the_packages_kernels():
    report = run_script(FALLBACK_SCRIPT, *KERNELS)
    assert report == {"files": [None, None], "packages": [True, True],
                      "own": [True, True]}


# Imports scipy's packages before or after netalign (argv[1]), then compares
# the package's kernels with scipy's public functions.
IMPORT_ORDER_SCRIPT = """
import json, sys
import numpy as np
if sys.argv[1] == "scipy first":
    import scipy.optimize, scipy.sparse
from netalign import operator, rounding
from netalign.graphs import RngSeed, generate_er
from netalign.harness import GridSpec, run_grid
if sys.argv[1] == "netalign first":
    import scipy.optimize, scipy.sparse

rng = np.random.default_rng(5)
assignments = []
for n in (1, 7, 60):
    cost = rng.standard_normal((n, n))
    for maximize in (False, True):
        ours = rounding.linear_sum_assignment(cost, maximize=maximize)
        theirs = scipy.optimize.linear_sum_assignment(cost, maximize=maximize)
        assignments.append(all(np.array_equal(a, b) for a, b in zip(ours, theirs)))
g = generate_er(40, 0.15, RngSeed(8))
products = [(g.csr() @ x).tobytes() == operator._csr_product(g, x).tobytes()
            for x in (rng.standard_normal(40), rng.standard_normal((40, 3)))]
grid = GridSpec(n_list=(6, 9), lambda_list=(0.0, 0.2), p=0.4, trials=4, base_seed=2)
print(json.dumps({
    "assignments": assignments,
    "products": products,
    "same": [rounding.linear_sum_assignment is scipy.optimize.linear_sum_assignment,
             operator._sparsetools is sys.modules["scipy.sparse._sparsetools"]],
    "workers": run_grid(grid, workers=2) == run_grid(grid, workers=1),
}))
"""


@pytest.mark.parametrize("order", ["scipy first", "netalign first"])
def test_kernels_are_scipys_in_either_import_order(order):
    print(f"kernels loaded through the {route()}")
    report = run_script(IMPORT_ORDER_SCRIPT, order)
    assert report == {"assignments": [True] * 6, "products": [True, True],
                      "same": [True, True], "workers": True}, route()
