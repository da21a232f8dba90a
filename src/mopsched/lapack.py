"""The four LAPACK routines mopsched calls, from scipy's own LAPACK module.

``grid`` factors and solves the load-bus admittance block with ``zgetrf``
and ``zgetrs``; ``solver`` factors and solves each KKT system with
``dgetrf`` and ``dgetrs``.  Importing ``scipy.linalg`` for them costs more
than half of a run's start-up: its package init imports scipy's array-API
layer, which imports ``numpy.f2py``, ``numpy.testing``, ``numpy.random`` and
``numpy.ma``.  This module loads the extension module
``scipy.linalg._flapack`` alone instead, the module ``scipy.linalg.lapack``
re-exports these routines from, so each one is the very object scipy
calls, with its bits and its per-call cost.  When ``scipy.linalg`` is
already imported, its loaded module is used.
"""

from __future__ import annotations

import sys
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from pathlib import Path

import scipy

_NAME = "scipy.linalg._flapack"


def _flapack():
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    where = [str(Path(p) / "linalg") for p in scipy.__path__]
    spec = PathFinder.find_spec(_NAME, where)
    if spec is None:
        raise ImportError(f"scipy's LAPACK module {_NAME} not found in {', '.join(where)}")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_module = _flapack()
dgetrf = _module.dgetrf
dgetrs = _module.dgetrs
zgetrf = _module.zgetrf
zgetrs = _module.zgetrs
