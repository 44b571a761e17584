"""Calibration of the host's speed, for the end-to-end timings.

The host is shared, and its speed drifts: the same operation runs up to
1.5x slower for tens of seconds or minutes at a time, and its CPU time
slows with it.  A fixed kernel timed next to an operation slows with it
when the kernel does the same kind of work.  So a run times a kernel
before its first set-up and operation and after each one, and divides
each wall by the mean slowdown of the two kernels around it.

A kernel returns its slowdown: its seconds over the seconds it takes on
the baseline machine at its usual speed.  A rescaled wall is therefore
in seconds at that speed.
"""

import gc
import random
import time
from fractions import Fraction

import numpy

clock = time.perf_counter

PYTHON_REF_S = 0.4
NUMPY_REF_S = 0.3


def python_slowdown():
    """A pure-Python kernel shaped like the exact pipeline: Fraction row
    reduction, a dict walk over tuple keys and big-int products.  The
    collector is off while it runs, so the program's heap does not change
    its cost."""
    rng = random.Random(12345)
    n = 60
    m = [[Fraction(rng.randint(-50, 50)) for _ in range(n)] for _ in range(n)]
    gc.disable()
    try:
        t0 = clock()
        for k in range(25):
            piv = m[k]
            for i in range(k + 1, n):
                f = m[i][k] / piv[k]
                m[i] = [a - f * b for a, b in zip(m[i], piv)]
        d = {}
        for i in range(120000):
            key = ((i * 7919) % 4001, i % 7)
            d[key] = d.get(key, 0) + i
        x = 1
        for i in range(1, 3000):
            x = x * (i * 104729 + 1) % (1 << 2048) + i
        return (clock() - t0) / PYTHON_REF_S
    finally:
        gc.enable()


def numpy_slowdown():
    """A numpy kernel shaped like the mod-p route: rank-one panel updates
    reduced mod 5, and a weighted bincount, with BLAS at its default
    thread count."""
    rng = numpy.random.default_rng(12345)
    a = rng.integers(0, 5, size=(600, 600)).astype(numpy.float64)
    idx = rng.integers(0, 600, size=200000)
    t0 = clock()
    for k in range(25):
        a -= numpy.outer(a[:, k].copy(), a[k])
        a %= 5
        numpy.bincount(idx, weights=a[k][idx], minlength=600)
    return (clock() - t0) / NUMPY_REF_S


def rescaled(walls, slowdowns):
    """Each wall divided by the mean slowdown of the kernels just before
    and just after it."""
    return [w * 2 / (a + b) for w, a, b in zip(walls, slowdowns, slowdowns[1:])]
