"""The thread count of NumPy's bundled OpenBLAS, set for the length of a scope.

This is the only module that reaches into OpenBLAS.  NumPy's wheels bundle a
``scipy_openblas`` build that exports a per-process thread getter and setter;
they are not a public NumPy API, so every function here is a no-op (or
returns ``None``) where either symbol is missing.  The count is global to
the process: while a scope is open, every thread of the process runs BLAS
calls with it.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os

import numpy as np

_GET = "scipy_openblas_get_num_threads64_"
_SET = "scipy_openblas_set_num_threads64_"


@functools.cache
def _functions():
    """The (getter, setter) pair of NumPy's bundled OpenBLAS, or None.

    Looked up on first use, not at import, so importing scanprune opens no
    library.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        get, set_ = getattr(lib, _GET, None), getattr(lib, _SET, None)
        if get is None or set_ is None:
            continue
        get.argtypes = []
        get.restype = ctypes.c_int
        set_.argtypes = [ctypes.c_int]
        set_.restype = None
        return get, set_
    return None


def num_threads() -> int | None:
    """The count OpenBLAS reports, or None without the bundled OpenBLAS."""
    fns = _functions()
    return None if fns is None else int(fns[0]())


@contextlib.contextmanager
def threads(count: int):
    """Run the body with ``count`` OpenBLAS threads; restore the caller's count after."""
    fns = _functions()
    if fns is None:
        yield
        return
    get, set_ = fns
    before = get()
    set_(count)
    try:
        yield
    finally:
        set_(before)

