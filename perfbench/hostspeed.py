"""Host-speed reference: a fixed kernel timed between operations.

On a shared host the speed of the CPU drifts by tens of percent over
seconds and minutes, as other tenants come and go.  Runs made minutes
apart then differ by that drift, however long each run is.  The benchmark
times this kernel between operations all through a run and reports its
time metrics at a nominal host speed: each operation's time is multiplied
by NOMINAL_MS / (kernel time around the operation).  The figures as
measured are printed in the summary as well.

The kernel does the two kinds of work a solve does, in about equal time:
dense LAPACK factorizations at the sizes of the `large-n` workload, and a
loop of tiny numpy calls whose cost is interpreter overhead, as on `mixed`.
It uses only numpy and scipy, never `fracdual`, so a change to the program
cannot move it.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg as sla

# About the kernel's median time on the 2-vCPU shared host where the
# benchmark was set up (Python 3.11, OpenBLAS pinned to one thread).  It
# only sets the scale of the reported figures; any fixed value would do.
NOMINAL_MS = 20.0
# A sample is taken between operations when this much loop time has passed
# since the last one; the kernel then takes about 2% of a run, besides
# the lead-in.
SAMPLE_EVERY_S = 0.2
# Seconds of samples taken back to back before the first operation, so that
# it has samples before it as well as after it.
LEAD_IN_S = 1.0

_rng = np.random.default_rng(20121120)
_SPD = []
for _n in (64, 128):
    _a = _rng.standard_normal((_n, _n))
    _SPD.append(_a @ _a.T + _n * np.eye(_n))
_SMALL = np.array([[2.0, 0.3], [0.3, 1.0]])
_VEC = np.array([0.1, 0.2])


def _kernel() -> float:
    acc = 0.0
    for _ in range(5):
        for a in _SPD:
            factor = sla.cho_factor(a)
            acc += float(sla.cho_solve(factor, a[:, 0])[0])
            acc += float(np.linalg.eigvalsh(a)[0])
    for i in range(1000):
        m = _SMALL * (1.0 + 1e-6 * i)
        acc += float(_VEC @ np.linalg.solve(m, _VEC))
    return acc


def sample_ms() -> float:
    """Time one run of the kernel, in ms."""
    t0 = time.perf_counter()
    _kernel()
    return 1e3 * (time.perf_counter() - t0)
