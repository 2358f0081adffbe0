"""The two compiled scipy modules the package calls are loaded from their
extension files, without the `__init__` of `scipy.optimize` and
`scipy.sparse`, and are the very modules those packages import, whichever
is imported first. `import netalign` leaves `numpy.random` (on numpy 2), the
harness and the estimators unloaded until first use. Each check runs in a fresh
interpreter, since this process has imported all of these already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import netalign
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


# Modules a fresh `import netalign` leaves for first use. numpy 2 loads
# numpy.random lazily; numpy 1.x's own `import numpy` loads it, and there
# it cannot be deferred.
DEFERRED = ("numpy.random", "netalign.harness", "netalign.estimators")

# Notes whether `import numpy` alone loads numpy.random, then imports argv[1]
# and lists which of argv[2:] it loaded.
LOADED_SCRIPT = """
import importlib, json, sys
import numpy
numpy_loads_random = "numpy.random" in sys.modules
importlib.import_module(sys.argv[1])
print(json.dumps({"numpy_loads_random": numpy_loads_random,
                  "loaded": [name for name in sys.argv[2:] if name in sys.modules]}))
"""


@pytest.mark.parametrize("module, deferred", [
    ("netalign", DEFERRED),
    ("netalign.cli", DEFERRED + ("netalign.selftest",)),
], ids=["netalign", "netalign.cli"])
def test_fresh_import_defers_what_matching_never_calls(module, deferred):
    report = run_script(LOADED_SCRIPT, module, *deferred)
    print(f"numpy's own import loads numpy.random: {report['numpy_loads_random']}")
    assert report["loaded"] == (["numpy.random"] if report["numpy_loads_random"] else [])


# Lists the public names `dir` misses before any is used, then star-imports
# the package and names each bound object that is not the one its defining
# module and the package attribute hold.
STAR_SCRIPT = """
import json, sys
import netalign
missing_from_dir = sorted(set(netalign.__all__) - set(dir(netalign)))
names = {}
exec("from netalign import *", names)
print(json.dumps({
    "missing_from_dir": missing_from_dir,
    "bound": sorted(names.keys() - {"__builtins__"}) == sorted(netalign.__all__),
    "foreign": [name for name in netalign.__all__
                if not (names[name] is getattr(sys.modules[names[name].__module__], name)
                        is getattr(netalign, name))],
}))
"""


def test_star_import_binds_each_modules_object():
    assert run_script(STAR_SCRIPT) == {"missing_from_dir": [], "bound": True, "foreign": []}


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        netalign.no_such_name
    with pytest.raises(ImportError):
        from netalign import no_such_name  # noqa: F401


# Draws from one stream in a fresh interpreter, by `RngSeed.generator()`
# and by `_stream` in the order argv[1] names, and by a generator built
# directly from numpy.random; notes whether numpy.random was loaded before
# the first draw, and whether `import numpy` alone loads it.
FIRST_DRAW_SCRIPT = """
import json, sys
import numpy
numpy_loads_random = "numpy.random" in sys.modules
from netalign.graphs import RngSeed, _stream
seed = RngSeed(11, 29)
deferred = "numpy.random" not in sys.modules

def draw(rng):
    return [rng.random(5).tobytes().hex(), rng.permutation(9).tolist()]

if sys.argv[1] == "generator first":
    first, stream = draw(seed.generator()), draw(_stream(seed))
else:
    stream, first = draw(_stream(seed)), draw(seed.generator())
from oracles import fresh_philox
print(json.dumps({"numpy_loads_random": numpy_loads_random, "deferred": deferred,
                  "same": first == stream == draw(fresh_philox(11, 29))}))
"""


@pytest.mark.parametrize("order", ["generator first", "stream first"])
def test_first_generator_draws_what_the_stream_draws(order):
    report = run_script(FIRST_DRAW_SCRIPT, order)
    assert report["deferred"] is not report["numpy_loads_random"]
    assert report["same"]
