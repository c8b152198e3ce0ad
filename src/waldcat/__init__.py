"""Waldhausen structures from complete hereditary cotorsion pairs.

The package works over module categories of finite-dimensional algebras
over prime fields.  It provides exact linear algebra over GF(p) and over
the integers, module and morphism arithmetic, Ext^1 computations,
cotorsion-pair resolutions, map classification and factorization,
Waldhausen axiom checkers, the induced cotorsion pair on span categories,
degreewise-split chain complex structures, and K0 localization reports.

All arithmetic is exact int64 arithmetic mod p: the package never calls
floating-point BLAS.  So importing it loads numpy with OpenBLAS pinned to
one thread, which spares every process an idle worker thread and part of
numpy's import time; the variable is removed again once numpy has loaded,
so subprocesses inherit the caller's environment unchanged.  To keep
multithreaded float BLAS in the same process, set
``OPENBLAS_NUM_THREADS`` (or ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS``)
or import numpy before waldcat; then nothing is changed.
"""

import importlib
import os
import sys

_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _load_numpy_single_threaded():
    """Import numpy with ``OPENBLAS_NUM_THREADS=1``, unless numpy is already
    loaded or the caller chose a thread count.  OpenBLAS reads the variable
    only when its library loads, so deleting it afterwards keeps one thread."""
    if "numpy" in sys.modules or any(v in os.environ for v in _BLAS_THREAD_VARIABLES):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        importlib.import_module("numpy")
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


_load_numpy_single_threaded()

__version__ = "0.1.0"
