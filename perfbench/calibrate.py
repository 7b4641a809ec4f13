"""Fixed reference work that measures the host's current CPU speed.

The effective CPU speed of the VM this benchmark was written on drifts by up
to 1.8x over a few minutes: one ref-dynamic fit took from 29 s to 53 s in
one set of ten runs. The drift shows in thread CPU time as well as in wall
time, so only a measurement taken at the same time can cancel it. The
harness times this work in the fitting thread before the first fit and after
every fit, and reports each fit's time relative to the mean of the two
reference times around it. Over 46 long-static fits in one process, the
time of a shorter version of this work tracked the fit time with correlation
0.82, and the ratio's spread was half the raw time's.

The work mixes interpreter steps and numpy calls on small arrays, as a fit
does. It does not call tvglearn, so a change to the library leaves it
unchanged. Every array stays below glibc's 128 KB mmap threshold, so the
work cannot change how the fitting process allocates its own temporaries.
"""

import time

import numpy as np

REPEATS = 150

_X = np.random.default_rng(0).normal(size=(12, 200))
_I, _J = np.triu_indices(12, k=1)
_V = np.random.default_rng(1).normal(size=190)


def reference_s() -> float:
    """Seconds the fixed reference work takes now (about 0.5 s)."""
    start = time.perf_counter()
    total = 0.0
    for _ in range(REPEATS):
        for i in range(20000):
            total += i * 0.5
        for _ in range(100):
            total += float(np.clip(_V - 0.1, 0.0, 1.0).sum())
        for _ in range(20):
            d = _X[_I] - _X[_J]
            total += float(np.einsum("es,es->", d, d))
    return time.perf_counter() - start
