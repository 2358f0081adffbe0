"""The compiled scipy modules netalign calls, loaded without their packages.

The package calls two of scipy's compiled kernels: the assignment solver
`linear_sum_assignment` of `scipy.optimize._lsap` and the CSR products
`csr_matvec` / `csr_matvecs` of `scipy.sparse._sparsetools`. Importing them
through `scipy.optimize` and `scipy.sparse` runs those packages' `__init__`,
which load `scipy.linalg`, `scipy.special`, `scipy.fft` and
`scipy.sparse.linalg`: about 0.4 s and 40 MB that nothing here uses.
`extension_module` loads the extension file alone instead, after the cheap
top-level `import scipy` (whose `_distributor_init` sets up the paths to
scipy's bundled libraries on some platforms), and registers it under its
canonical name, so a later `import scipy.optimize` or `import scipy.sparse`
shares the module object. Where the installed scipy has no such file, the
module is imported the usual way: the same functions, only slower to load.

A module loaded here before its package is reached through `import` and
`from` statements and `sys.modules`, but Python does not bind it as an
attribute of the package imported later: after `import scipy.optimize`,
`scipy.optimize._lsap` raises AttributeError, and
`from scipy.optimize import _lsap` works.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import sys
from pathlib import Path
from types import ModuleType

import scipy


def extension_file(name: str) -> Path | None:
    """The extension file of the scipy module `name` (such as
    "scipy.optimize._lsap") in the installed scipy, or None if it has none
    under that name."""
    package, _, leaf = name.rpartition(".")
    directory = Path(scipy.__file__).parent.joinpath(*package.split(".")[1:])
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = directory / (leaf + suffix)
        if path.is_file():
            return path
    return None


def extension_module(name: str) -> ModuleType:
    """The scipy extension module `name`: the one in `sys.modules` if it is
    there, else loaded from `extension_file(name)` and registered, else
    imported through its package."""
    if name in sys.modules:
        return sys.modules[name]
    path = extension_file(name)
    if path is None:
        return importlib.import_module(name)
    loader = importlib.machinery.ExtensionFileLoader(name, str(path))
    spec = importlib.util.spec_from_file_location(name, str(path), loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    sys.modules[name] = module
    return module
