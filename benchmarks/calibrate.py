"""Machine-speed calibration for the end-to-end timings.

On a shared machine the speed of one core drifts with the load of other
tenants: the same check took 0.20 s in one 4-second window and 0.35 s in
another, in one process, with no other process of ours running (2-vCPU Xeon,
2.0 GHz, 105 MiB L3).  ``kernel`` is a fixed piece of work with the same mix
as hydroham's hot paths (small jet-like numpy products via ``np.add.at``,
tree recursion over Python objects, 3x3 ``einsum`` and ``inv``, a counter
seeded generator per point), so its time tracks the machine's speed at that
moment.  It uses no hydroham code, so no change to the program moves it.

The kernel runs just before and just after every request, and inside it on
a timer signal, with the time of the inside runs taken out of the request's.
A request's normalized time is its time times ``REFERENCE_S`` over the median
kernel time of those, its own samples (see ``normalized``): seconds at the
speed the reference machine has when it is not contended.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

import numpy as np

# Kernel time on the reference machine (2-vCPU Xeon, 2.0 GHz, Python 3.11.7,
# numpy 2.4.6) when it is not contended: the fastest quarter of its samples.
REFERENCE_S = 3.0e-3
# The machine's speed moves within a second, so a long request is also
# sampled inside, every INSIDE_EVERY_S.
INSIDE_EVERY_S = 0.1

_I = np.array([0, 0, 1, 0, 1, 2])
_J = np.array([0, 1, 0, 2, 1, 0])
_K = np.array([0, 1, 1, 2, 2, 2])
_ONES = np.ones((3, 3, 3))


class _Jet:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __add__(self, other):
        return _Jet(self.c + other.c)

    def __mul__(self, other):
        out = np.zeros_like(self.c)
        np.add.at(out, _K, self.c[_I] * other.c[_J])
        return _Jet(out)


def _tree(depth: int, x):
    if depth == 0:
        return x
    return _tree(depth - 1, x) * x + x


def kernel() -> float:
    acc = 0.0
    for i in range(40):
        u = np.random.default_rng((7, i, 0)).random(3)
        acc += _tree(6, _Jet(np.array([u[0], 1.0, 0.0]))).c[0]
        g = np.linalg.inv(np.eye(3) + np.outer(u, u))
        acc += float(np.max(np.abs(np.einsum("ia,kab,bj->kij", g, _ONES, g))))
        acc += math.exp(u[1])
    return acc


def kernel_seconds() -> float:
    """One timed kernel run, with the cyclic garbage collector paused so a
    collection owed by the program is not charged to the kernel (the kernel
    frees everything it allocates)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def normalized(seconds: float, own_samples: list) -> float:
    """Normalized time of a request that took ``seconds``, given the kernel
    times of its own samples: the run just before it, those inside it and the
    run just after it.  They track the speed the request ran at better than
    the samples of a window around it: in one run per workload, they cut the
    spread of one request's normalized times across cycles from 16% to 12%
    on cli-systems and from 11% to 8% on local-pencil (README.md)."""
    return seconds * REFERENCE_S / statistics.median(own_samples)
