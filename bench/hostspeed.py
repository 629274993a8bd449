"""The host's speed, read from a fixed reference kernel, to take the VM's
swings out of the benchmark's timings.

A shared VM runs the same code up to 1.7 times slower from one second to the
next, as its neighbours' load comes and goes.  ``probe()`` times a fixed
kernel right before and right after each timed operation, and ``adjust()``
scales the operation's time by ``REFERENCE_S`` over the mean of the two: a
time in seconds at the host speed at which the kernel takes ``REFERENCE_S``.
A program change does not move the kernel, so it moves the adjusted time as
much as the raw one; the host's swings move both and cancel, as far as the
operation's speed follows the kernel's.  That holds closely for the linear
towers' small-array steps and only loosely for the MLP's 2-thread BLAS
matmuls (bench/README.md gives the measured correlations).

The kernel is single-threaded (a Python loop, NumPy element-wise ufuncs and a
non-BLAS ``einsum``) and calls nothing in scanprune, so neither the program
nor its BLAS thread count changes what it measures.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

# The kernel's median time on the 2-vCPU Xeon VM the baseline was made on.
REFERENCE_S = 0.0055

_A = np.linspace(-1.0, 1.0, 4096)
_M = np.linspace(-1.0, 1.0, 128 * 128).reshape(128, 128)


def _kernel() -> float:
    acc = 0
    for i in range(30000):
        acc += (i * i) % 7
    x = _A
    for _ in range(200):
        x = np.tanh(x * 1.0001 + 0.001)
    y = np.einsum("ij,jk->ik", _M, _M)  # a C loop, not BLAS
    return acc + float(x[0]) + float(y[0, 0])


def probe() -> float:
    """Seconds the kernel takes now: the median of five back-to-back timings."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return median(times)


def adjust(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between probes ``before`` and ``after``, at reference speed."""
    return seconds * REFERENCE_S / ((before + after) / 2.0)
