"""Host-speed calibration of timed sections.

On a shared host the CPU runs at different speeds from one moment to the
next: on the shared 2-vCPU virtual machine (Intel Xeon, 2.1 GHz) this
benchmark was built on, the same work took anywhere from 1x to 2x as long,
switching within a second, in phases that last minutes.  Raw wall times of
identical runs then spread by 20-30%, more than any bound a regression
check can use.

Every timed section is therefore bracketed by a short fixed numpy kernel
that shares no code with blockweyl, and its time is scaled to the speed at
which that kernel takes ``REFERENCE_S``:

    normalized = raw * REFERENCE_S / mean(kernel before, kernel after)

A change to blockweyl moves the raw time and leaves the kernel alone, so it
moves the normalized time by the same factor.
"""

from __future__ import annotations

import time

import numpy as np
from numpy.linalg import inv as _inv  # bound before a tracer can wrap numpy.linalg

# Kernel time at the fast speed of that reference machine (5th percentile of
# 4000 samples, three runs); on other hosts normalized times are in these units.
REFERENCE_S = 3.2e-4
_ITERATIONS = 60
_A = np.array([[5.0, 1.0, 0.0, 0.5], [1.0, 4.0, 0.3, 0.0],
               [0.0, 0.3, 6.0, 1.0], [0.5, 0.0, 1.0, 4.5]])


def kernel_seconds() -> float:
    """Wall time of the fixed calibration kernel, now."""
    t = time.perf_counter()
    for _ in range(_ITERATIONS):
        _inv(_A @ _A)
    return time.perf_counter() - t


def scale(before: float, after: float) -> float:
    """Factor taking a raw time between two kernel runs to reference speed."""
    return REFERENCE_S / (0.5 * (before + after))


if __name__ == "__main__":
    samples = np.array([kernel_seconds() for _ in range(4000)])
    print("kernel seconds: p5 %.4g  p50 %.4g  p95 %.4g" % tuple(np.percentile(samples, [5, 50, 95])))
