"""Adaptive Gauss-Kronrod quadrature for array-valued integrands.

A 7/15 point Gauss-Kronrod pair drives panel bisection; the panel with the
largest error estimate is split until the global estimate meets the requested
tolerance.  The integrand is evaluated once on the nodes of all initial
panels and then once per round of bisections: when the loop reaches a panel
whose halves are not evaluated yet, it evaluates them together with the
halves of the largest other panels, in descending error order, until their
errors cover the excess over the tolerance, within the panel budget.  The
loop itself pops, bisects and sums as it would one bisection at a time, so
the panel set, the sums and the budget error are bitwise those of the
sequential algorithm; only a few evaluated halves go unused.  :func:`_panel`
weighs each evaluated panel's 15 values once; their absolute values, the
scale of the relative tolerance, are weighed on the initial panels only.
Integrands may return complex arrays of any fixed shape.  Initial panel
edges can be pinned at known breakpoints (atoms, segment edges, support
boundaries) so discontinuities of the integrand never sit inside a panel.
A caller that knows how far the loop will bisect may give the widest panel
it wants (``widest``, as the transforms do: one period of the solution row);
the initial panels are then cut at repeated midpoints ``0.5 * (a + b)``, as
the loop bisects, so the loop starts on panels it would itself have made
(:func:`_initial_panels`).  A panel too narrow to bisect, one whose halves'
15 nodes need not be distinct floats (a scalar test on its width in ulps of
its edges), is accepted with the largest absolute entry of its value as
error when that exceeds its Kronrod-Gauss gap, since its nodes may straddle
a jump.

:func:`gauss_legendre` gives the nodes and weights of a fixed Gauss-Legendre
rule, for callers that size one a priori (the transforms on constant
stretches, through :func:`blockweyl.measures.integrate_bv`); it is not part
of the adaptive loop.
"""

from __future__ import annotations

import functools
import heapq
import math
from itertools import pairwise
from typing import Callable, Sequence

import numpy as np

from .errors import AccuracyError

#: the panel budget of :func:`integrate`
MAX_PANELS = 4096

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
#: the gap between the two closest nodes of a half, in widths of its parent
_HALF_GAP = 0.25 * float(_XGK[0] - _XGK[1])
#: Newton steps of :func:`gauss_legendre`: the last one that moves a node
#: by more than this leaves it within roundoff, and from Tricomi's guesses
#: no size takes more than four
_NEWTON_TOL = 1e-15
_NEWTON_STEPS = 10


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``P_n`` and ``P_n'`` at the points ``x`` inside ``(-1, 1)``, by the three-term recurrence."""
    prev, p = np.ones_like(x), x
    for k in range(1, n):
        prev, p = p, ((2 * k + 1) * x * p - k * prev) / (k + 1)
    return p, n * (prev - x * p) / ((1.0 - x) * (1.0 + x))


@functools.lru_cache(maxsize=32)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``n`` ascending nodes of the Gauss-Legendre rule on ``[-1, 1]`` and
    their weights, built once per size and kept in a bounded store.

    The nonnegative nodes are the roots of ``P_n`` by Newton's method on its
    three-term recurrence, all at once, from Tricomi's initial guesses
    ``(1 - (n - 1) / 8n^3) cos(pi (4k - 1) / (4n + 2))``, taken as the sine of
    the complementary angle so that the middle one of an odd ``n`` is 0; the
    weights are ``2 / ((1 - x^2) P_n'(x)^2)`` at them, and the negative half
    mirrors the positive one (N. Hale and A. Townsend, Fast and accurate
    computation of Gauss-Legendre and Gauss-Jacobi quadrature nodes and
    weights, SIAM J. Sci. Comput. 35, 2013).  Against 40-digit roots the
    nodes are within ``1e-16``; the relative error of a weight grows like
    ``1 / (1 - x^2)``, to about ``2e-12`` at the end nodes of ``n = 1024``.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.sin(np.pi * (n + 1 - 2 * k) / (2 * n + 1))
    for _ in range(_NEWTON_STEPS):
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if np.abs(step).max() <= _NEWTON_TOL:
            break
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp**2)
    inner = n // 2  # the positive nodes, the middle one of an odd n left out
    t = np.concatenate([-x[:inner], x[::-1]])
    w = np.concatenate([w[:inner], w[::-1]])
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def _weigh(w: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """``sum_i w[i] stack[i]`` as one row-times-matrix product (bitwise ``np.tensordot``)."""
    return np.dot(w[None], stack.reshape(len(w), -1)).reshape(stack.shape[1:])


def _panel(stack: np.ndarray, h: float):
    """Kronrod estimate of one panel of half-width ``h`` from its 15 node
    values, and its distance to the Gauss estimate as the error."""
    kron = h * _weigh(_KRONROD_W, stack)
    gauss = h * _weigh(_GAUSS_W, stack)
    return kron, float(np.max(np.abs(kron - gauss)))


def _at_resolution(a: float, b: float) -> bool:
    """Whether the panel ``[a, b]`` is too narrow to bisect: its midpoint
    rounds onto an edge, or the closest two nodes of its halves are at most
    two ulps of its larger edge apart, so they need not be distinct floats."""
    mid = 0.5 * (a + b)
    return mid <= a or mid >= b or (b - a) * _HALF_GAP <= 2.0 * math.ulp(max(abs(a), abs(b)))


def _initial_panels(
    lo: float,
    hi: float,
    breakpoints: Sequence[float],
    widest: Callable[[float, float], float] | None,
    max_panels: int,
) -> list[tuple[float, float]]:
    """The panels :func:`integrate` starts from.

    ``[lo, hi]`` is cut at the breakpoints inside it, less any within
    ``1e-15`` relative of the edge before.  With ``widest``, each of those
    panels ``[a, b]`` is cut further at repeated midpoints, as the loop
    bisects, until no piece is wider than ``widest(a, b)``; the cuts stop one
    level short of any depth that would give more than half of
    ``max_panels`` panels, leaving the other half to the loop.
    """
    edges = [lo]
    for b in sorted(set(float(b) for b in breakpoints)):
        if lo < b < hi and b - edges[-1] > 1e-15 * max(1.0, abs(b)):
            edges.append(b)
    edges.append(hi)
    panels = list(pairwise(edges))
    if widest is None:
        return panels
    depths = []
    for a, b in panels:
        depth, width, limit = 0, b - a, widest(a, b)
        while width > limit:
            depth, width = depth + 1, 0.5 * width
        depths.append(depth)
    level = max(depths)
    while level > 0 and sum(2 ** min(d, level) for d in depths) > max_panels // 2:
        level -= 1
    pieces = []

    def cut(a: float, b: float, depth: int) -> None:
        mid = 0.5 * (a + b)
        if depth > 0 and not _at_resolution(a, b):
            cut(a, mid, depth - 1)
            cut(mid, b, depth - 1)
        else:
            pieces.append((a, b))

    for (a, b), depth in zip(panels, depths):
        cut(a, b, min(depth, level))
    return pieces


def integrate(
    f: Callable[[float], np.ndarray],
    lo: float,
    hi: float,
    *,
    breakpoints: Sequence[float] = (),
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-13,
    max_panels: int = MAX_PANELS,
    vectorized: bool = False,
    widest: Callable[[float, float], float] | None = None,
) -> tuple[np.ndarray, float]:
    """Integrate ``f`` over ``[lo, hi]``, returning (value, error estimate).

    A ``vectorized`` integrand receives an ascending array of nodes and must
    return the correspondingly stacked values.  ``widest(a, b)``, when given,
    is the widest initial panel wanted between the breakpoints ``a`` and
    ``b`` (:func:`_initial_panels`).  A panel too narrow to bisect
    (:func:`_at_resolution`) is accepted as it is; its error leaves the
    stopping test, and the returned estimate counts it as the larger of its
    Kronrod-Gauss gap and the largest absolute entry of its value, an
    estimate and not a bound.  Raises :class:`AccuracyError` when the panel
    budget is exhausted before the tolerance is met.
    """
    if hi <= lo:
        probe = np.asarray(f(np.array([lo]))[0] if vectorized else f(lo), dtype=complex)
        return np.zeros_like(probe), 0.0

    def values(xs: np.ndarray) -> np.ndarray:
        if vectorized:
            return np.asarray(f(xs), dtype=complex)
        return np.stack([np.asarray(f(x), dtype=complex) for x in xs])

    def nodes(a: float, b: float) -> tuple[np.ndarray, float]:
        """The 15 ascending nodes of the panel ``[a, b]`` and its half-width."""
        h = 0.5 * (b - a)
        return 0.5 * (a + b) + h * _NODES, h

    heap = []  # (-err, counter, lo, hi, value)
    halves = {}  # counter of a leaf -> (value, error) of its two halves, weighed ahead
    total = None
    total_err = 0.0  # of the panels in the heap
    accepted_err = 0.0  # of the panels accepted at floating-point resolution
    resabs_total = 0.0
    counter = 0
    panels = _initial_panels(lo, hi, breakpoints, widest, max_panels)
    first = [nodes(a, b) for a, b in panels]
    stack = values(np.concatenate([xs for xs, _ in first]))  # every initial panel in one call
    for k, ((a, b), (_, h)) in enumerate(zip(panels, first)):
        part = stack[15 * k : 15 * (k + 1)]
        val, err = _panel(part, h)
        total = val if total is None else total + val
        total_err += err
        # the tolerance scales with the integral of |f| over the initial panels
        resabs_total += float(np.max(h * _weigh(_KRONROD_W, np.abs(part))))
        heapq.heappush(heap, (-err, counter, a, b, val))
        counter += 1

    def target() -> float:
        scale = max(resabs_total, float(np.max(np.abs(total))))
        return max(abs_tol, rel_tol * scale)

    def weigh_halves(leaves: list[tuple[int, float, float]]) -> None:
        """Evaluate the halves of every leaf ``(key, a, b)`` in one call, on
        ascending nodes, and keep each half's value and error under ``key``."""
        leaves = sorted(leaves, key=lambda leaf: leaf[1])
        parts = [nodes(*ends) for _, a, b in leaves for ends in ((a, 0.5 * (a + b)), (0.5 * (a + b), b))]
        stack = values(np.concatenate([xs for xs, _ in parts]))
        weighed = [_panel(stack[15 * k : 15 * (k + 1)], h) for k, (_, h) in enumerate(parts)]
        for i, (key, _, _) in enumerate(leaves):
            halves[key] = weighed[2 * i : 2 * i + 2]

    while True:
        tol = target()
        if total_err <= tol:
            break
        if counter >= max_panels:
            raise AccuracyError(
                f"quadrature did not converge after {counter} panels "
                f"(error estimate {total_err + accepted_err:.3e})",
                achieved=total_err + accepted_err,
            )
        neg_err, key, a, b, val = heapq.heappop(heap)
        err = -neg_err
        if _at_resolution(a, b):
            # accept it and stop weighing its error against the tolerance; its
            # nodes may straddle a jump, where the Kronrod-Gauss gap bounds
            # nothing, so it reports its value's largest entry as error where
            # that is larger
            total_err -= err
            accepted_err += max(err, float(np.max(np.abs(val))))
            continue
        if key not in halves:
            # bisect ahead the largest other leaves whose errors, with this
            # one's, cover the excess over the tolerance, within the budget
            leaves, cover = [(key, a, b)], err
            for neg, k, c, d, _ in sorted(heap):
                if cover >= total_err - tol or 2 * len(leaves) + 2 > max_panels - counter:
                    break
                if k not in halves and not _at_resolution(c, d):
                    leaves.append((k, c, d))
                    cover -= neg
            weigh_halves(leaves)
        (v1, e1), (v2, e2) = halves.pop(key)
        mid = 0.5 * (a + b)
        total = total - val + v1 + v2
        total_err = total_err - err + e1 + e2
        heapq.heappush(heap, (-e1, counter, a, mid, v1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, b, v2))
        counter += 1

    return total, total_err + accepted_err
