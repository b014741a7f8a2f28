"""Adaptive Gauss-Kronrod quadrature for array-valued integrands.

A 7/15 point Gauss-Kronrod pair drives panel bisection; the panel with the
largest error estimate is split until the global estimate meets the requested
tolerance.  Integrands may return complex arrays of any fixed shape.  Initial
panel edges can be pinned at known breakpoints (atoms, segment edges, support
boundaries) so discontinuities of the integrand never sit inside a panel.
"""

from __future__ import annotations

import heapq
from typing import Callable, Sequence

import numpy as np

from .errors import AccuracyError

# 15-point Kronrod abscissae on [-1, 1] (positive half) and weights, together
# with the weights of the embedded 7-point Gauss rule (QUADPACK dqk15 data).
_XGK = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.0,
    ]
)
_WGK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
_WG = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
    ]
)

_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])  # 15 ascending nodes
_KRONROD_W = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GAUSS_W = np.zeros(15)
_GAUSS_W[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])


def _panel(f: Callable[[float], np.ndarray], lo: float, hi: float, vectorized: bool):
    """Kronrod and Gauss estimates of one panel plus an error estimate."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    if vectorized:
        stack = np.asarray(f(c + h * _NODES), dtype=complex)
    else:
        stack = np.stack([np.asarray(f(c + h * t), dtype=complex) for t in _NODES])
    kron = h * np.tensordot(_KRONROD_W, stack, axes=1)
    gauss = h * np.tensordot(_GAUSS_W, stack, axes=1)
    err = float(np.max(np.abs(kron - gauss)))
    resabs = h * np.tensordot(_KRONROD_W, np.abs(stack), axes=1)
    return kron, err, resabs


def integrate(
    f: Callable[[float], np.ndarray],
    lo: float,
    hi: float,
    *,
    breakpoints: Sequence[float] = (),
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-13,
    max_panels: int = 4096,
    vectorized: bool = False,
) -> tuple[np.ndarray, float]:
    """Integrate ``f`` over ``[lo, hi]``, returning (value, error estimate).

    A ``vectorized`` integrand receives an ascending array of nodes and must
    return the correspondingly stacked values.  Raises :class:`AccuracyError`
    when the panel budget is exhausted before the tolerance is met.
    """
    if hi <= lo:
        probe = np.asarray(f(np.array([lo]))[0] if vectorized else f(lo), dtype=complex)
        return np.zeros_like(probe), 0.0
    edges = [lo]
    for b in sorted(set(float(b) for b in breakpoints)):
        if lo < b < hi and b - edges[-1] > 1e-15 * max(1.0, abs(b)):
            edges.append(b)
    edges.append(hi)

    heap = []  # (-err, counter, lo, hi, value)
    total = None
    total_err = 0.0
    resabs_total = 0.0
    counter = 0
    for a, b in zip(edges[:-1], edges[1:]):
        val, err, resabs = _panel(f, a, b, vectorized)
        total = val if total is None else total + val
        total_err += err
        resabs_total += float(np.max(resabs))
        heapq.heappush(heap, (-err, counter, a, b, val))
        counter += 1

    def tol_met() -> bool:
        scale = max(resabs_total, float(np.max(np.abs(total))))
        return total_err <= max(abs_tol, rel_tol * scale)

    while not tol_met():
        if counter >= max_panels:
            raise AccuracyError(
                f"quadrature did not converge after {counter} panels "
                f"(error estimate {total_err:.3e})",
                achieved=total_err,
            )
        neg_err, _, a, b, val = heapq.heappop(heap)
        err = -neg_err
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            # panel at floating-point resolution; accept its contribution
            total_err -= err
            continue
        v1, e1, r1 = _panel(f, a, mid, vectorized)
        v2, e2, r2 = _panel(f, mid, b, vectorized)
        total = total - val + v1 + v2
        total_err = total_err - err + e1 + e2
        heapq.heappush(heap, (-e1, counter, a, mid, v1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, b, v2))
        counter += 1

    return total, total_err
