"""scipy's compiled LAPACK, BLAS and ``cdist``, without importing their packages.

The package ``__init__`` of ``scipy.linalg`` imports ``scipy._lib._array_api``
and through it ``numpy.f2py``, ``numpy.testing`` and ``unittest``: about
0.3 s and 300 modules in every process, for ten routines. That of
``scipy.spatial`` imports ``scipy.linalg`` and more (about 0.5 s and 400
modules), for one. The routines live in compiled extensions beside those
``__init__`` files: ``_flapack`` and ``_fblas`` in ``scipy/linalg``, and
in ``scipy/spatial`` ``_distance_pybind``, whose ``cdist_sqeuclidean`` is
what ``cdist(a, b, "sqeuclidean")`` calls. Each is loaded here from its
file under its real name, so CPython caches it as the package would, and
a later ``import scipy.linalg`` or ``import scipy.spatial`` hands out the
very same routine objects. The modules are kept out of ``sys.modules``,
which is left as it was.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import os
import sys

__all__ = [
    "cdist_sqeuclidean", "dpotrf", "dpotrs", "dptsv", "dstebz",
    "dsytrd", "dsytrd_lwork", "dtrmm", "dtrmv", "dtrtri",
]


def _extension_file(package: str, name: str) -> str | None:
    """Path of the compiled module ``name`` of ``scipy.<package>``, or None."""
    spec = importlib.util.find_spec("scipy")
    roots = spec.submodule_search_locations if spec else None
    for root in roots or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, package, name + suffix)
            if os.path.isfile(path):
                return path
    return None


def _extension(package: str, name: str):
    """The compiled module ``name`` of ``scipy.<package>``."""
    fullname = f"scipy.{package}.{name}"
    path = _extension_file(package, name)
    if path is None:
        # nothing to load from a file: the normal import gives the same
        # objects, after running the package's __init__
        return importlib.import_module(fullname)
    loaded = fullname in sys.modules
    loader = importlib.machinery.ExtensionFileLoader(fullname, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_file_location(fullname, path, loader=loader))
    loader.exec_module(module)
    if not loaded:
        # CPython files a freshly loaded extension under its name
        sys.modules.pop(fullname, None)
    return module


_flapack = _extension("linalg", "_flapack")
_fblas = _extension("linalg", "_fblas")
cdist_sqeuclidean = _extension("spatial", "_distance_pybind").cdist_sqeuclidean
dpotrf = _flapack.dpotrf
dpotrs = _flapack.dpotrs
dptsv = _flapack.dptsv
dstebz = _flapack.dstebz
dsytrd = _flapack.dsytrd
dsytrd_lwork = _flapack.dsytrd_lwork
dtrtri = _flapack.dtrtri
dtrmm = _fblas.dtrmm
dtrmv = _fblas.dtrmv
