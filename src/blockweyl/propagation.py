"""Solutions of ``J u' + (q - lam w) u = w f`` as balanced BV functions.

Between atoms and segment edges the equation is a smooth linear ODE,

    ``u' = J^-1 (lam * w_dens(x) - q_dens(x)) u + J^-1 w_dens(x) f(x)``,

integrated either in closed form (constant coefficients on the stretch) or
by a sixth-order Magnus method on a uniform mesh, refined by doubling until a
Richardson estimate meets ``ode_rtol``/``ode_atol``.  Constant stretches
flow through :class:`_PencilFlow`.  Where ``q`` or ``w`` has no density the
coefficient is ``lam M`` or ``M`` for a matrix ``M`` free of ``lam``; its
flow ``exp(tau M)``, with the complex step ``tau = lam dx`` or ``dx``, is
decomposed once per system.  A stretch with both densities has one matrix
per parameter.  A matrix flows through its eigenbasis only when the basis is
conditioned below ``_COND_CAP = 1e3``, since that flow loses about
``cond(V)`` times roundoff; otherwise through an exact finite series when it
is a multiple of the identity plus a nilpotent part, and through
:func:`_expm_stack` when it is neither.  Each Magnus step is the
exponential of a small matrix ``Omega`` of the flow's Lie algebra, taken by
:func:`_expm_stack`, a diagonal Padé approximant ``r`` with
``r(-Omega) = r(Omega)^-1``; so ``lam`` and ``conj(lam)``, which share a
mesh, keep the Wronskian identity to roundoff.
Crossing an atom applies the transfer

    ``u_plus = B_plus^-1 (B_minus u_minus + Dw(x) f(x))``,

so a solution is a list of smooth pieces plus stored one-sided limits at its
breakpoints; its value at a breakpoint is always understood as balanced.
Solutions and rows are read by one routine, ``many(xs, side)``, on an
ascending array of points, and a single point is a batch of one of it.

Propagation runs on a 1-D array of spectral parameters at once: every stored
value carries a leading axis over them, and a single parameter is a batch of
one.  Constant stretches flow all parameters at once, through the system's
decomposition or, when both densities are present, through stacked LAPACK
calls; atom transfers are stacked too.  Every other stretch gets a mesh per
parameter, and a solve builds all its meshes in lockstep doubling rounds
(:func:`_magnus_meshes`), each mesh bitwise the one its parameter gets alone;
the first round builds each mesh at its a-priori step count and at twice
that, so that most meshes are accepted in one round.  Its coefficients are
assembled as ``lam (J^-1 w) - J^-1 q`` from density fits premultiplied by
``J^-1`` once per stretch (:class:`_StretchCoefficients`).
A drive ``f`` is one more column of the coefficients, the top rows of an
augmented matrix (:func:`_expm_stack`), which rides on the steps of the row
at the same parameter where a pass has both.
The Magnus path takes its stacked products of small matrices (the
coefficients, commutators, Padé powers and squarings, the prefix scan and
the dense-output sub-steps) by broadcast entries (:func:`_small_matmul`),
whose result for one matrix does not depend on the stack it sits in; no
kernel is chosen by stack size, since that would tie a mesh's bits to the
meshes sharing its round.  The ``diag`` and ``series`` flows, atom
transfers and the solve of each Padé step keep numpy's ``matmul`` and
LAPACK.

A transform (:func:`forward_transform_compact`) integrates the row against
``w f``.  On a constant stretch that integrand is entire wherever ``f`` is
a polynomial, which a plain ``f`` read through its :class:`ChebyshevForm`
is on each resolved piece; such a piece takes a Gauss-Legendre rule whose
size an a-priori bound fixes (:func:`_gauss_rules`), capped at the adaptive
budget's node count.  Unresolved pieces, pieces on Magnus stretches and
pieces above the cap take the adaptive quadrature.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from functools import cache, cached_property
from itertools import accumulate, pairwise
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.chebyshev import chebvander
# never called: the benchmark's tracer finds the ODE layer and the expm kernel
# through these bindings
from scipy.integrate import solve_ivp as _scipy_solve_ivp
from scipy.linalg import expm as _scipy_expm

from . import quadrature
from .errors import AccuracyError, BlockweylError, SingularTransferError, StructuralError
from .measures import IntervalSpec, integrate_bv
from .system import (
    SingularitySet,
    SystemSpec,
    choose_anchors,
    jump_matrices,
    partition_points,
    subintervals,
)


#: the readings of a BV function at a point: its one-sided limits and their mean
_SIDES = ("left", "right", "balanced")


def evaluate_many(f: Callable[[float], np.ndarray], xs: np.ndarray) -> np.ndarray:
    """Complex values of ``f`` at the points ``xs``, stacked along a leading axis.

    ``f.many(xs)`` is called once when ``f`` has that method; a plain callable
    is called once per point, on Python floats, and no points give an empty
    array of shape ``(0,)``.  The transforms read a plain callable through
    its :class:`ChebyshevForm` instead (:func:`sampled`).
    """
    many = getattr(f, "many", None)
    if many is not None:
        return np.asarray(many(xs), dtype=complex)
    return np.array([f(x) for x in np.asarray(xs, dtype=float).tolist()], dtype=complex)


@dataclass(frozen=True, eq=False)
class VectorFunction:
    """Vector-valued function with optional support and breakpoint hints.

    The callable must return *balanced* values at atoms; the solver and the
    transforms never infer them.  :meth:`many` evaluates it on an array of
    points: one ``fn.many`` call when ``fn`` has that method (a nested
    :class:`VectorFunction`, an :class:`ArrayForm`, a
    :class:`ChebyshevForm`, a :class:`~blockweyl.transform.SpectralSynthesis`),
    otherwise one ``fn`` call per point.  A single point is a batch of one.
    The transforms sample a plain ``fn`` once per smooth piece
    (:func:`sampled`), so ``breakpoints`` should mark every jump and kink of
    ``fn`` inside ``support``.
    """

    fn: Callable[[float], np.ndarray]
    support: tuple[float, float] | None = None
    breakpoints: tuple[float, ...] = ()

    def __call__(self, x: float) -> np.ndarray:
        return self.many(np.array([x]))[0]

    def many(self, xs: np.ndarray) -> np.ndarray:
        """Values at the points ``xs``, stacked; rows outside the support, NaN among them, are zero."""
        xs = np.asarray(xs, dtype=float)
        vals = evaluate_many(self.fn, xs)
        if self.support is None:
            return vals
        inside = (self.support[0] <= xs) & (xs <= self.support[1])
        return np.where(inside.reshape((-1,) + (1,) * (vals.ndim - 1)), vals, 0)


@dataclass(frozen=True, eq=False)
class ArrayForm:
    """A function given by its form ``many(xs)`` on an array of points, so that
    wrapped in a :class:`VectorFunction` it is evaluated once per batch; a
    single point is a batch of one."""

    many: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x: float) -> np.ndarray:
        return self.many(np.array([x]))[0]


# sizes of the Chebyshev samples of a smooth piece, and the relative size
# below which a trailing quarter of coefficients is roundoff (Trefethen,
# Approximation Theory and Approximation Practice, SIAM 2013; Aurentz and
# Trefethen, Chopping a Chebyshev series, ACM TOMS 43, 2017)
_CHEB_SIZES = (8, 16, 32, 64, 128)
_CHEB_TAIL = 1e-14


def _chebyshev_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``n`` first-kind Chebyshev points ``cos(pi (2j + 1) / 2n)`` on
    ``[-1, 1]`` and the matrix taking values there to the coefficients of
    their interpolant: ``2/n cos(pi k (2j + 1) / 2n)``, halved for ``k = 0``,
    its angles reduced mod ``2 pi`` in integers so that every entry is
    within roundoff (the three-term recurrence loses about ``k`` ulps)."""
    odd = 2 * np.arange(n) + 1
    to_coeffs = np.cos(np.pi / (2 * n) * (np.outer(np.arange(n), odd) % (4 * n))) * (2.0 / n)
    to_coeffs[0] *= 0.5
    return np.cos(np.pi / (2 * n) * odd), to_coeffs


_CHEB_BASES = {n: _chebyshev_basis(n) for n in _CHEB_SIZES}


def _chebyshev_coefficients(fn: Callable[[float], np.ndarray], lo: float, hi: float) -> np.ndarray | None:
    """Chebyshev coefficients of the plain callable ``fn`` on ``(lo, hi)``,
    stacked along a leading axis, or None when no size resolves it.

    ``fn`` is sampled at 8, 16, 32, 64 and 128 first-kind points, interior
    ones, so never at the edges.  A size is taken when its trailing quarter
    of coefficients is below ``_CHEB_TAIL`` times the largest sample of the
    piece, and the next size's coefficients agree with its own to that bound,
    so a piece of degree at most 5 costs 8 + 16 calls.  Doubling sizes do
    not nest, so the confirming size reads ``fn`` at new points only: ``T_k``
    vanishes at all ``n`` points only when ``k`` is an odd multiple of ``n``,
    so never at both sizes, where nested sizes (16, then 48) would both read
    0 for ``T_48`` and take ``1 + T_48`` for 1.  The piece is given up when
    a size's trailing quarter is above that bound and the next size's is not
    below half of it: the series is not converging, as for data that is
    noise relative to its own size.
    """
    prev = None
    for n in _CHEB_SIZES:
        t, to_coeffs = _CHEB_BASES[n]
        vals = evaluate_many(fn, lo + (hi - lo) * 0.5 * (t + 1.0))
        coeffs = (to_coeffs @ vals.reshape(n, -1)).reshape(vals.shape)
        scale = float(np.abs(vals).max(initial=0.0))
        tail = np.abs(coeffs[3 * n // 4:]).max()
        if prev is not None:
            c, prev_tail, tol = prev[0], prev[2], _CHEB_TAIL * max(prev[1], scale)
            gap = np.abs(coeffs - np.concatenate([c, np.zeros_like(c)])).max()
            if prev_tail <= tol and gap <= tol:
                return c
            if prev_tail > tol and tail >= 0.5 * prev_tail:
                return None
        prev = coeffs, scale, tail
    return None


@dataclass(frozen=True, eq=False)
class ChebyshevForm:
    """A plain callable ``fn`` read through its Chebyshev series on smooth pieces.

    ``edges[i]`` is ``(lo, hi)`` of the ``i``-th piece that
    :func:`_chebyshev_coefficients` resolved, ascending, and ``coeffs[i]``
    its series, padded with zeros to the longest one.  :meth:`many` takes
    the Chebyshev polynomials at every point of the batch inside a piece in
    one three-term recurrence, and sums each piece's series over its points
    with one product; a point on a piece edge, such as an atom, or outside
    every resolved piece gets ``fn``'s own value, one call per point.
    """

    fn: Callable[[float], np.ndarray]
    edges: np.ndarray
    coeffs: np.ndarray

    def __call__(self, x: float) -> np.ndarray:
        return self.many(np.array([x]))[0]

    def many(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        k = np.searchsorted(self.edges[:, 0], xs, side="right") - 1
        lo, hi = self.edges[k].T
        inside = (k >= 0) & (lo < xs) & (xs < hi)
        if not inside.any():
            return evaluate_many(self.fn, xs)
        k, lo, hi = k[inside], lo[inside], hi[inside]
        n, shape = self.coeffs.shape[1], self.coeffs.shape[2:]
        T = chebvander((2.0 * xs[inside] - (lo + hi)) / (hi - lo), n - 1)
        vals = np.empty((len(k), math.prod(shape)), dtype=complex)
        for piece in np.unique(k):
            at = k == piece
            vals[at] = T[at] @ self.coeffs[piece].reshape(n, -1)
        out = np.empty((len(xs),) + shape, dtype=complex)
        out[inside] = vals.reshape((-1,) + shape)
        if not inside.all():
            out[~inside] = evaluate_many(self.fn, xs[~inside])
        return out


def sampled(sys: SystemSpec, f: Callable[[float], np.ndarray]) -> Callable[[float], np.ndarray]:
    """``f`` as the transforms integrate it: each plain callable in it read
    through its :class:`ChebyshevForm`.

    The pieces are the stretches of the segments of ``w``, where quadrature
    nodes fall, within the interval and the support of ``f``, cut at the
    atoms of the system and the breakpoints of ``f``.  A :class:`VectorFunction`
    gets its ``fn`` sampled on its own support and breakpoints; anything else
    with a ``many`` (an :class:`ArrayForm`, a form already sampled) is
    returned as it is, so sampling twice changes nothing.
    """
    return _sampled(f, sys.w, sys.interval, tuple(sys.atom_positions()))


def _sampled(f, w, span: tuple[float, float], breaks: tuple[float, ...]):
    """:func:`sampled` of ``f`` on the part of ``span`` in its support, cut at ``breaks``."""
    lo, hi = span
    supp = getattr(f, "support", None)
    if supp is not None:
        lo, hi = max(lo, supp[0]), min(hi, supp[1])
    breaks += tuple(getattr(f, "breakpoints", ()))
    if isinstance(f, VectorFunction):
        fn = _sampled(f.fn, w, (lo, hi), breaks)
        return f if fn is f.fn else replace(f, fn=fn)
    if hasattr(f, "many"):
        return f
    pieces = []
    for seg in w.segments:
        s_lo, s_hi = max(seg.interval[0], lo), min(seg.interval[1], hi)
        if s_hi <= s_lo or not (np.isfinite(s_lo) and np.isfinite(s_hi)):
            continue
        edges = [s_lo] + sorted({x for x in breaks if s_lo < x < s_hi}) + [s_hi]
        for a, b in pairwise(edges):
            coeffs = _chebyshev_coefficients(f, a, b)
            if coeffs is not None:
                pieces.append((a, b, coeffs))
    if not pieces:
        return f
    padded = np.zeros((len(pieces), max(len(c) for *_, c in pieces)) + pieces[0][2].shape[1:], dtype=complex)
    for row, (*_, c) in zip(padded, pieces):
        row[: len(c)] = c
    return ChebyshevForm(f, np.array([(a, b) for a, b, _ in pieces]), padded)


# ---------------------------------------------------------------------------
# smooth stretches


def _spectral_parameters(lam) -> np.ndarray:
    """``lam`` as a 1-D complex array; a single parameter is a batch of one."""
    return np.atleast_1d(np.asarray(lam, dtype=complex))


# condition cap of an eigenbasis: the flow's relative error grows like
# cond(V) times roundoff (Moler and Van Loan, SIAM Review 45, 2003), and must
# stay near 1e-13
_COND_CAP = 1e3


def _diagonalize(A: np.ndarray):
    """``(mu, V, Vinv, ok)`` for a stack of nonzero matrices.

    ``ok`` marks the eigendecompositions that reconstruct their matrix and
    have a basis whose condition number is below ``_COND_CAP``.  A stack on
    which LAPACK fails is retried one matrix at a time, so a failure costs no
    other matrix its decomposition.
    """
    try:
        mu, V = np.linalg.eig(A)
        Vinv = np.linalg.inv(V)
    except np.linalg.LinAlgError:
        if len(A) == 1:
            zeros = np.zeros_like(A)
            return np.zeros(A.shape[:-1], dtype=complex), zeros, zeros, np.zeros(1, dtype=bool)
        return tuple(np.concatenate(part) for part in zip(*(_diagonalize(a[None]) for a in A)))
    D = np.zeros_like(V)
    D.reshape(len(A), -1)[:, :: A.shape[-1] + 1] = mu
    recon = np.abs(V @ D @ Vinv - A).max(axis=(1, 2))
    scale = np.maximum(1.0, np.abs(A).max(axis=(1, 2)))
    return mu, V, Vinv, (np.linalg.cond(V) < _COND_CAP) & (recon <= 1e-12 * scale)


# diagonal Padé degrees with the largest 1-norm each reaches in double
# precision (Higham, SIAM J. Matrix Anal. Appl. 26, 2005, Table 2.3), and the
# coefficients b_j = (2m - j)! m! / ((2m)! j! (m - j)!) of numerator and
# denominator; b_0 = 1 makes the denominator of a zero matrix exactly I
_PADE_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1), (7, 9.504178996162932e-1),
               (9, 2.097847961257068e0), (13, 5.371920351148152e0))
_PADE_COEFFS = {m: [math.comb(m, j) / math.perm(2 * m, j) for j in range(m + 1)] for m, _ in _PADE_THETA}


def _pade_order(A: np.ndarray) -> tuple[int, int]:
    """Degree ``m`` and scaling ``s`` of :func:`_expm_stack` for the stack ``A``.

    At degree 13 the stack is scaled by one more halving than ``theta_13``
    asks for: that ``theta`` bounds the backward error, and on non-normal
    matrices whose exponential has entries near 1e15 it lets the forward
    error reach 2e-13 of the largest entry; one more squaring keeps it below
    1e-13 (measured against 40-digit exponentials)."""
    norm = np.abs(A).sum(axis=-2).max(initial=0.0)
    m = next((m for m, theta in _PADE_THETA if norm <= theta), 13)
    s = int(np.ceil(np.log2(norm / _PADE_THETA[-1][1]))) if norm > _PADE_THETA[-1][1] else 0
    return (m, s + 1) if m == 13 else (m, s)


def _small_matmul(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``X @ Y`` of broadcast stacks of small matrices, summed over broadcast entries.

    ``out[..., i, j] = X[..., i, 0] Y[..., 0, j] + X[..., i, 1] Y[..., 1, j] + ...``
    in ascending order of the inner index, by elementwise products of whole
    stacks: on stacks of 2x2 and 3x3 matrices this is faster than
    ``np.matmul``, which hands every matrix to BLAS on its own, though slower
    on a single matrix.  Each product depends only on its own operands, not
    on the stack's length, its other matrices or the product's place in it,
    so a stack's products are bitwise those of any slice of it and of each
    matrix alone, and a column of ``Y`` gets the same bits whatever columns
    stand beside it.  Both operands are first given the same number of axes:
    numpy's complex multiply takes another inner loop for one-element
    operands whose axis counts differ, which changes the last bit.
    """
    if X.ndim != Y.ndim:
        X, Y = X[(None,) * (Y.ndim - X.ndim)], Y[(None,) * (X.ndim - Y.ndim)]
    out = X[..., :, :1] * Y[..., :1, :]
    for k in range(1, X.shape[-1]):
        out += X[..., :, k : k + 1] * Y[..., k : k + 1, :]
    return out


# Augmented matrices.  A drive adds the column b = J^-1 w f to the coefficient
# A, and the flow of [[A, b], [0, 0]] carries (u, 1) (Van Loan, IEEE TAC 23,
# 1978).  Such a matrix and every exponential or product of them keeps the
# last row of a generator, 0, or of a flow, (0, 1); so the kernels below take
# the top rows [X | x], n x (n + 1), and a square stack is the case without a
# column.  The n x n block of every result is formed from n x n blocks alone,
# by the operations it gets without a column, so it is bitwise the same.


def _times(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The top rows of the product of two augmented generators: ``[X Y | X y]``."""
    return _small_matmul(X[..., : X.shape[-2]], Y)


def _compose(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The top rows of the product of two augmented flows: ``[X Y | X y + x]``."""
    out = _times(X, Y)
    out[..., X.shape[-2] :] += X[..., X.shape[-2] :]
    return out


def _expm_stack(A: np.ndarray, order: tuple[int, int] | None = None) -> np.ndarray:
    """``exp(A)`` of every matrix of a stack ``(..., n, n)``, or of every
    augmented generator given by its top rows ``(..., n, n + 1)``.

    Scaling and squaring of the diagonal Padé approximant ``r = (V - U)^-1
    (V + U)``, ``U`` odd and ``V`` even in ``A`` (Higham 2005): one degree
    serves the stack, by default the lowest whose ``theta`` bounds the
    largest 1-norm of its ``n x n`` blocks; beyond ``theta_13`` the stack is
    scaled by ``2^-s`` and ``r`` squared ``s`` times.  ``order = (m, s)``
    imposes degree and scaling, so that stacks joined into one call keep
    their own.  For an augmented generator the last column of ``r`` is
    ``2 (V - U)^-1 u``, ``u`` the column of ``U``, taken in the same solve,
    and a squaring maps it ``d -> E d + d``; the ``n x n`` block is bitwise
    the exponential of that block alone, so a drive's column never moves
    the bits of a row.  The powers, ``U`` and the squarings are products of
    :func:`_small_matmul` and the solve is one stacked LAPACK call, so each
    matrix's exponential is bitwise the one it gets alone at the same order.
    A zero matrix gives the identity exactly.
    """
    n = A.shape[-2]
    m, s = order or _pade_order(A[..., :n])
    if s:
        A = A / 2.0**s
    b = _PADE_COEFFS[m]
    eye = np.eye(n, A.shape[-1])
    A2 = _times(A, A)
    powers = [A2]  # A^2, A^4, ..., A^(m-1)
    for _ in range(m // 2 - 1):
        powers.append(_times(powers[-1], A2))
    U = _times(A, sum((b[2 * k + 3] * P for k, P in enumerate(powers)), b[1] * eye))
    U[..., n:] += b[1] * A[..., n:]  # the corner b_1 of the augmented sum
    V = sum((b[2 * k + 2] * P[..., :n] for k, P in enumerate(powers)), b[0] * eye[:, :n])
    E = np.linalg.solve(V - U[..., :n], np.concatenate([V + U[..., :n], 2.0 * U[..., n:]], axis=-1))
    for _ in range(s):
        E = _compose(E, E)
    return E


def _exp_times(kind: str, tau: np.ndarray, Y: np.ndarray, data: tuple) -> np.ndarray:
    """``exp(tau M) Y`` from the data of ``M``'s kind, broadcasting against ``tau``."""
    if kind == "zero":
        return Y
    if kind == "diag":
        mu, V, Vinv = data
        return V @ (np.exp(tau[..., None] * mu)[..., None] * (Vinv @ Y))
    if kind == "series":
        shift, powers = data
        n = powers.shape[-1]
        steps = tau[..., None, None] ** np.arange(n)
        terms = (steps @ powers.reshape(powers.shape[:-3] + (n, n * n))).reshape(tau.shape + (n, n))
        return (np.exp(shift * tau)[..., None, None] * terms) @ Y
    (M,) = data
    return _expm_stack(tau[..., None, None] * M) @ Y


class _PencilFlow:
    """Flows ``Y -> exp(tau M) Y`` of constant matrices ``M``, at complex steps ``tau = scale dx``.

    Either one matrix ``M`` free of ``lam`` serves every parameter (:meth:`of`
    of an ``(n, n)`` matrix, then :meth:`scaled`): a constant stretch without
    ``q`` density has ``A(lam) = lam M`` with ``M = J^-1 W``, one without
    ``w`` density ``A = M = -J^-1 Q``, and ``scale`` holds the parameters or
    ones.  Or each parameter has its own matrix (:meth:`of` of a stack
    ``(m, n, n)``, ``scale`` ones): constant stretches with both densities.
    Each matrix takes the first kind that applies: ``zero``; ``diag`` when
    its eigendecomposition passes the gates of :func:`_diagonalize` (which
    hold for ``lam M`` as they do for ``M``); ``series`` when
    ``M = mu I + N`` with ``N^n`` exactly zero, where
    ``exp(tau M) = e^(mu tau) sum_{k<n} (tau N)^k / k!`` is exact; ``expm``,
    by :func:`_expm_stack`, otherwise.  ``groups`` holds
    ``(kind, index, data)`` per kind present, ``index`` the parameters
    taking it (``...`` for all).  ``flow[i]`` is the flow of parameter ``i``
    alone, which :meth:`apply` also takes at an array of offsets.  A zero
    step gives ``Y`` exactly.
    """

    def __init__(self, groups: list, scale, stacked: bool):
        self.groups, self.scale, self.stacked = groups, scale, stacked

    @classmethod
    def of(cls, M: np.ndarray) -> "_PencilFlow":
        """The flow of one matrix ``(n, n)`` or of a stack ``(m, n, n)``, with stacked LAPACK calls."""
        A = M.reshape((-1,) + M.shape[-2:])
        n = A.shape[-1]
        groups = []

        def split(kind, idx, keep, *data):
            """Group the matrices ``idx[keep]`` under ``kind``; the others are left."""
            if not keep.any():
                return idx
            if keep.all():
                groups.append((kind, ... if len(idx) == len(A) else idx, data))
                return idx[:0]
            groups.append((kind, idx[keep], tuple(a[keep] for a in data)))
            return idx[~keep]

        idx = split("zero", np.arange(len(A)), ~A.any(axis=(1, 2)))
        if len(idx):
            mu, V, Vinv, ok = _diagonalize(A if len(idx) == len(A) else A[idx])
            idx = split("diag", idx, ok, mu, V, Vinv)
        if len(idx):
            shift = np.trace(A[idx], axis1=1, axis2=2) / n
            N = A[idx] - shift[:, None, None] * np.eye(n)
            powers = [np.broadcast_to(np.eye(n, dtype=complex), N.shape)]  # N^k / k!
            for k in range(1, n):
                powers.append(powers[-1] @ N / k)
            idx = split("series", idx, ~np.linalg.matrix_power(N, n).any(axis=(1, 2)), shift, np.stack(powers, 1))
        if len(idx):
            split("expm", idx, np.ones(len(idx), dtype=bool), A[idx])
        if M.ndim == 2:
            return cls([(kind, ..., tuple(a[0] for a in data)) for kind, _, data in groups], 1.0, False)
        return cls(groups, np.ones(len(A)), True)

    @property
    def kind(self) -> str:
        return "+".join(kind for kind, _, _ in self.groups)

    def scaled(self, scale) -> "_PencilFlow":
        return _PencilFlow(self.groups, scale, self.stacked)

    def __getitem__(self, i) -> "_PencilFlow":
        if not self.stacked:
            return self.scaled(self.scale[i])
        kind, index, data = next(group for group in self.groups if group[1] is ... or i in group[1])
        pos = i if index is ... else np.searchsorted(index, i)
        # copies, so that a cached single-parameter flow does not pin the stack
        return _PencilFlow([(kind, ..., tuple(a[pos].copy() for a in data))], 1.0, False)

    def apply(self, dx, Y: np.ndarray) -> np.ndarray:
        """``exp(tau M) Y`` for ``tau = scale dx``: vectors or matrices ``Y``
        stacked like ``scale``, or one parameter's at an array of offsets ``dx``."""
        tau = self.scale * np.asarray(dx)
        vec = Y.ndim == np.ndim(self.scale) + 1
        if vec:
            Y = Y[..., None]
        out = np.empty(tau.shape + Y.shape[-2:], dtype=complex)
        for kind, index, data in self.groups:
            out[index] = _exp_times(kind, tau[index], Y[index], data)
        if not tau.all():
            np.copyto(out, Y, where=(tau == 0)[..., None, None])
        return out[..., 0] if vec else out


# Gauss-Legendre nodes of a sixth-order Magnus step, as fractions of the step
_GAUSS = 0.5 + np.sqrt(15.0) / 10.0 * np.array([-1.0, 0.0, 1.0])
# a-priori Magnus steps per unit of |stretch| * (1 + |lam|), and the refinement cap
_STEPS_PER_UNIT = 3.0
_MAX_STEPS = 2**14


def _commutator(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``[X, Y]`` of augmented generators: ``[X Y - Y X | X y - Y x]``."""
    return _times(X, Y) - _times(Y, X)


def _magnus_exponents(A: np.ndarray, h) -> np.ndarray:
    """Sixth-order Magnus exponents of steps of signed length ``h``.

    ``A[..., i, :, :]`` is the coefficient at the step's Gauss node ``i``,
    square or the top rows ``[A | b]`` of an augmented generator; the scheme
    is that of Blanes, Casas and Ros (BIT 40, 2000), with real weights, so
    ``conj(lam)`` gets the exponents ``-(J Omega J^-1)^*`` of ``lam``.  It is
    linear combinations and commutators, so the exponent of an augmented
    generator is augmented, and its ``n x n`` block is bitwise the exponent
    of the square coefficients alone.
    """
    h = np.reshape(h, np.shape(h) + (1, 1))
    a1 = h * A[..., 1, :, :]
    a2 = (np.sqrt(15.0) / 3.0) * h * (A[..., 2, :, :] - A[..., 0, :, :])
    a3 = (10.0 / 3.0) * h * (A[..., 2, :, :] - 2.0 * A[..., 1, :, :] + A[..., 0, :, :])
    c1 = _commutator(a1, a2)
    c2 = _commutator(a1, 2.0 * a3 + c1) / -60.0
    return a1 + a3 / 12.0 + _commutator(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0


def _density_degree(meas, lo: float, hi: float) -> int | None:
    """Largest degree hint of the segments meeting ``(lo, hi)``; None when one is generic."""
    degrees = [seg.degree for seg in meas.segments if seg.interval[0] < hi and seg.interval[1] > lo]
    return None if None in degrees else max(degrees, default=0)


def _stretch_is_constant(sys: SystemSpec, lo: float, hi: float) -> bool:
    return all(_density_degree(meas, lo, hi) == 0 for meas in (sys.q, sys.w))


def _stretch_fits(sys: SystemSpec, lo: float, hi: float) -> list:
    """Chebyshev fits of the ``q`` and ``w`` densities of one stretch (None for
    a generic density).  A degree-0 fit is the density itself, at the
    stretch's middle, which for an unbounded (constant) stretch is its
    infinite end."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fits = []
    for meas in (sys.q, sys.w):
        d = _density_degree(meas, lo, hi)
        if d is None:
            fits.append(None)
        elif d == 0:
            fits.append(meas.density_many(np.array([mid])).reshape(1, -1))
        else:
            t = np.cos(np.pi * (np.arange(d + 1) + 0.5) / (d + 1))
            vals = meas.density_many(mid + half * t).reshape(d + 1, -1)
            fits.append(np.linalg.solve(chebvander(t, d), vals))
    return fits


def _fitted(sys: SystemSpec, lo: float, hi: float) -> list:
    """:func:`_stretch_fits` of a stretch, made on its first solve and kept
    in the system's store; a stretch fitted again gets the fit it had."""
    return sys.derived.get(("fit", lo, hi), lambda: _stretch_fits(sys, lo, hi))


class _StretchCoefficients:
    """Coefficient matrices ``J^-1 (lam w - q)`` of one smooth stretch, at any of its points.

    A density whose segment gives its degree ``d`` is evaluated once, at
    ``d + 1`` Chebyshev points of the stretch, and interpolated from there; a
    generic one is evaluated at every point asked for.  The fits are kept in
    the system's store (:func:`_fitted`), so a row and a drive on one stretch
    read the same densities, and premultiplied by ``J^-1`` once per stretch:
    the matrix at ``lam`` is then ``lam (J^-1 w) - J^-1 q``.  On a ``J``
    whose inverse has entries 0 and +-1 (every shipped problem's) that
    premultiplication is exact.  With a drive ``f`` each matrix gets one
    more column, ``(J^-1 w) f``: the top rows of the augmented generator
    ``[[A, J^-1 w f], [0, 0]]``, whose flow carries ``(u, 1)``.
    """

    def __init__(self, sys: SystemSpec, lo: float, hi: float, f: Callable[[float], np.ndarray] | None):
        self.sys, self.lo, self.hi, self.f = sys, lo, hi, f
        self.n = sys.dim
        self.mid, self.half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        self.fits = [None if fit is None else _small_matmul(sys.J_inv, fit.reshape(len(fit), self.n, self.n))
                     .reshape(len(fit), -1) for fit in _fitted(sys, lo, hi)]

    def densities(self, xs: np.ndarray) -> tuple:
        """``(J^-1 q, J^-1 w)`` at the points ``xs``: what :meth:`assemble`
        needs with the drive's values, the same for every parameter and every
        drive.  Both fits read the leading columns of one Chebyshev matrix."""
        degree = max((len(fit) - 1 for fit in self.fits if fit is not None), default=-1)
        basis = chebvander((xs - self.mid) / self.half, degree) if degree >= 0 else None
        return tuple(
            _small_matmul(self.sys.J_inv, meas.density_many(xs)) if fit is None
            else (basis[:, : len(fit)] @ fit).reshape(len(xs), self.n, self.n)
            for meas, fit in zip((self.sys.q, self.sys.w), self.fits)
        )

    def drive(self, xs: np.ndarray) -> np.ndarray | None:
        """The drive's values at the points ``xs``, None without a drive."""
        return None if self.f is None else evaluate_many(self.f, xs)

    def assemble(self, lam: complex, q: np.ndarray, w: np.ndarray, fs: np.ndarray | None) -> np.ndarray:
        """Stacked coefficient matrices at ``lam`` from :meth:`densities` and :meth:`drive`."""
        A = lam * w - q
        if fs is None:
            return A
        return np.concatenate([A, _small_matmul(w, fs[..., None])], axis=-1)

    def at(self, lam: complex, xs: np.ndarray) -> np.ndarray:
        """Stacked coefficient matrices at the points ``xs``."""
        return self.assemble(lam, *self.densities(xs), self.drive(xs))


def _with_identity(E: np.ndarray) -> np.ndarray:
    """The stacks ``E[j]`` of steps, each led by the identity (with a zero column where ``E`` has one)."""
    eye = np.eye(*E.shape[-2:], dtype=complex)
    return np.concatenate([np.broadcast_to(eye, (len(E), 1) + E.shape[2:]), E], axis=1)


def _prefix_products(E: np.ndarray) -> np.ndarray:
    """``M[j, k] = E[j, k-1] ... E[j, 0]``, ``M[j, 0]`` the identity, by a
    doubling scan over the steps ``k`` of each stack ``E[j]`` of flows,
    square or augmented (:func:`_compose`).

    Round ``s = 1, 2, 4, ...`` takes ``M[k] <- M[k] M[k - s]`` for ``k >= s``,
    ``sum_s (L + 1 - s)`` products of :func:`_small_matmul` for ``L`` steps;
    so each stack's products are bitwise those it gets alone.
    """
    M = _with_identity(E)
    shift = 1
    while shift < M.shape[1]:
        M[:, shift:] = _compose(M[:, shift:], M[:, :-shift])
        shift *= 2
    return M


def _total_products(E: np.ndarray) -> np.ndarray:
    """``_prefix_products(E)[:, -1]``, bitwise, from the scan's products that it depends on.

    Before the scan's round of shift ``s`` the last entry ``M[L]`` depends
    only on the entries ``L - i s``.  So each round forms just the entries
    ``L - 2 i s`` of the next, each times its neighbour ``L - (2 i + 1) s``
    as the scan does: about ``L`` products in all, in the scan's association.
    """
    M = _with_identity(E)
    last = M.shape[1] - 1
    shift = 1
    while shift <= last:
        # M holds the entries last % shift, last % shift + shift, ..., last
        if (last // shift) % 2:
            M = _compose(M[:, 1::2], M[:, 0:-1:2])
        else:
            M = np.concatenate([M[:, :1], _compose(M[:, 2::2], M[:, 1:-1:2])], axis=1)
        shift *= 2
    return M[:, -1]


def _refined(fine, coarse, tols) -> bool:
    """Richardson test for a sixth-order method: ``|fine - coarse| / 63`` within tolerance.

    An augmented flow, given by its top rows, counts its last row
    ``(0, ..., 0, 1)`` in the scale, as the whole matrix would.
    """
    return all(
        np.abs(f - c).max()
        <= 63.0 * (tols.ode_atol + tols.ode_rtol * np.abs(f).max(initial=float(f.shape[-1] > f.shape[-2])))
        for f, c in zip(fine, coarse)
    )


@dataclass
class _MagnusMesh:
    """One parameter's Magnus solution on a stretch.

    ``values[k]`` is the solution at ``x0 + k h``.  A point between mesh
    points is reached by one Magnus sub-step from the mesh point before it in
    the direction of propagation, with the coefficient ``coeff`` at the
    sub-step's Gauss nodes.  Where ``coeff`` has a drive column, the
    sub-step's column is added to the state columns ``driven``: every column
    of a drive solve, the last of a row read beside its drive
    (:func:`_paired_row`), none of a row.
    """

    x0: float
    h: float
    values: np.ndarray
    coeff: Callable[[np.ndarray], np.ndarray]
    driven: slice

    @property
    def end(self) -> np.ndarray:
        return self.values[-1]

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        k = np.clip(np.floor((xs - self.x0) / self.h).astype(int), 0, len(self.values) - 2)
        s = xs - (self.x0 + k * self.h)
        n = self.values.shape[1]
        A = self.coeff(((xs - s)[:, None] + s[:, None] * _GAUSS).ravel())
        E = _expm_stack(_magnus_exponents(A.reshape((len(xs), 3) + A.shape[1:]), s))
        start = self.values[k]
        out = _small_matmul(E[..., :n], start.reshape(len(xs), n, -1))
        out[..., self.driven] += E[..., n:]
        return out.reshape(start.shape)


def _transfer_pairs(T: np.ndarray, J: np.ndarray, Jinv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked transfers ``T`` of a stretch and ``J T^-1 J^-1``, the adjoints
    of those at ``conj(lam)``.  For the top rows ``T = [P | p]`` of augmented
    flows the pair is the top rows of the augmented flow's pair,
    ``[J P^-1 J^-1 | -J P^-1 p]``."""
    n = T.shape[-2]
    try:
        JPinv = J @ np.linalg.inv(T[..., :n])
        return T, np.concatenate([JPinv @ Jinv, -(JPinv @ T[..., n:])], axis=-1)
    except np.linalg.LinAlgError:  # a mesh too coarse to resolve anything
        if len(T) == 1:
            return T, np.full_like(T, np.nan)
        return T, np.concatenate([_transfer_pairs(t[None], J, Jinv)[1] for t in T])


def _grouped(keys: dict) -> list[list]:
    """The keys of ``keys`` grouped by equal values, in order of first appearance."""
    groups: dict = {}
    for k, key in keys.items():
        groups.setdefault(key, []).append(k)
    return list(groups.values())


def _joined(fn, stacks: list[np.ndarray], *args) -> list[np.ndarray]:
    """``fn`` of the stacks joined along their first axis, split back."""
    return np.split(fn(np.concatenate(stacks), *args), np.cumsum([len(a) for a in stacks])[:-1])


def _magnus_meshes(jobs: Sequence[tuple], tols) -> list:
    """Sixth-order Magnus meshes of several parameters and stretches, built in lockstep.

    A job ``(coeff, lam, x_from, x_to)`` is one parameter on one stretch: a
    row, or a drive solve where ``coeff`` has a drive; the jobs of one call
    have at most one drive.  Its step count starts from ``N = |x_to -
    x_from| (1 + |lam|)``, at most half the cap, and doubles until the
    Richardson estimate of the stretch's transfer matrix meets
    ``ode_rtol``/``ode_atol``.  The estimate also covers the transfer at
    ``conj(lam)`` (:func:`_transfer_pairs`), so both parameters choose the
    same mesh and the Wronskian identity holds to roundoff.  A drive's job
    is tested on its augmented transfer ``[[P, p], [0, 1]]`` and that
    transfer's pair, as a solve with ``n + 1`` states would be: its
    ``n x n`` part and its column both count.

    The first round builds every job's meshes at ``N`` and ``2N`` steps and
    tests the second against the first; each later round takes every
    unfinished job one doubling further.  The jobs of one parameter on one
    directed stretch at one step count share one stack of steps: a drive
    rides on the row's steps as their extra column (the top rows of
    augmented matrices, see :func:`_expm_stack`), and a drive with no such
    row computes its ``n x n`` part itself.  When the call has a drive every
    stack carries a column, zero for a row without its drive, so that all
    stacks join.  A round evaluates the densities once per stretch and step
    count, the exponents in one :func:`_magnus_exponents` call, the step
    exponentials in one :func:`_expm_stack` call per Padé order, each stack
    at the order its own ``n x n`` blocks select (Higham 2005), and the
    transfer pairs of all its stacks in one :func:`_transfer_pairs` call.  A
    stack that is compared, at ``2N`` steps or more, gets its full scan
    :func:`_prefix_products` at once, whose last entry is its transfer; one
    at ``N`` steps is only a reference and gets just its transfer,
    :func:`_total_products`, bitwise that last entry.  A job that fails
    while its partner passes goes on alone.  Every product goes through
    :func:`_small_matmul` and no ``n x n`` block reads a column, so every
    row is bitwise the row its job builds alone and never depends on a
    drive.  Returns per job ``(h, M)``, the step and the transfer products
    of :func:`_prefix_products` (with the drive's column for a drive), or,
    past ``_MAX_STEPS`` steps, the :class:`AccuracyError` to raise where the
    propagation reaches that stretch.
    """
    if not jobs:
        return []
    first = {k: min(max(2, int(np.ceil(abs(x_to - x_from) * (1.0 + abs(lam)) * _STEPS_PER_UNIT))), _MAX_STEPS // 2)
             for k, (_, lam, x_from, x_to) in enumerate(jobs)}
    steps = {k: 2 * n_k for k, n_k in first.items()}  # per unfinished job, its next compared count
    coarse: dict = {}  # per unfinished job, the transfers its compared mesh is tested against
    fresh = list(first.items())  # the meshes of a round that only set ``coarse``
    out: list = [None] * len(jobs)
    sys = jobs[0][0].sys
    n = sys.dim
    width = n + any(coeff.f is not None for coeff, *_ in jobs)
    while steps:
        for k, (_, lam, x_from, x_to) in enumerate(jobs):
            if steps.get(k, 0) > _MAX_STEPS:
                del steps[k]
                out[k] = AccuracyError(
                    f"Magnus mesh on [{min(x_from, x_to)}, {max(x_from, x_to)}] needs more than "
                    f"{_MAX_STEPS} steps at lam={complex(lam)}"
                )
        if not steps:
            break
        shared: dict = {}  # per stack (stretch, edge, step count, parameter), the jobs sharing it
        for k, n_k in fresh + list(steps.items()):
            shared.setdefault((jobs[k][0].lo, jobs[k][0].hi, jobs[k][2], n_k, jobs[k][1]), []).append(k)
        fresh = []
        keys, units = list(shared), list(shared.values())
        counts = [key[3] for key in keys]
        h = [(jobs[ks[0]][3] - jobs[ks[0]][2]) / n_k for ks, n_k in zip(units, counts)]
        compared = [n_k > first[ks[0]] for ks, n_k in zip(units, counts)]
        # units on one stretch at one step count share their nodes
        nodesets = _grouped({u: key[:4] for u, key in enumerate(keys)})
        stacks = {}  # per unit: coefficients, then exponents, then step exponentials
        for us in nodesets:
            xs = (keys[us[0]][2] + h[us[0]] * (np.arange(counts[us[0]])[:, None] + _GAUSS)).ravel()
            densities = jobs[units[us[0]][0]][0].densities(xs)
            drive = None
            for u in us:
                coeff = next((jobs[k][0] for k in units[u] if jobs[k][0].f is not None), jobs[units[u][0]][0])
                if coeff.f is not None and drive is None:
                    drive = coeff.drive(xs)
                A = coeff.assemble(keys[u][4], *densities, None if coeff.f is None else drive)
                if A.shape[-1] < width:
                    A = np.concatenate([A, np.zeros(A.shape[:-1] + (width - n,))], axis=-1)
                stacks[u] = A.reshape(counts[u], 3, n, width)
        # the exponents of all units in one call; each unit's coefficients are
        # let go once joined
        exponents = _magnus_exponents(np.concatenate([stacks.pop(u) for u in range(len(units))]),
                                      np.repeat(h, counts))
        stacks = dict(enumerate(np.split(exponents, np.cumsum(counts)[:-1])))
        order = {u: _pade_order(a[..., :n]) for u, a in stacks.items()}
        for us in _grouped(order):
            stacks.update(zip(us, _joined(_expm_stack, [stacks[u] for u in us], order[us[0]])))
        scans, totals = {}, {}
        for us in _grouped({u: (counts[u], compared[u]) for u in stacks}):
            stacked = np.stack([stacks[u] for u in us])
            if compared[us[0]]:
                scans.update(zip(us, _prefix_products(stacked)))
                totals.update((u, scans[u][-1]) for u in us)
            else:
                totals.update(zip(us, _total_products(stacked)))
        ends = _transfer_pairs(np.stack([totals[u] for u in range(len(units))]), sys.J, sys.J_inv)
        # the meshes at N steps first: each sets what its job's mesh at 2N is tested against
        for u in sorted(range(len(units)), key=compared.__getitem__):
            for k in units[u]:
                mine = tuple(end[u] if jobs[k][0].f is not None else end[u, :, :n] for end in ends)
                if not compared[u]:
                    coarse[k] = mine
                elif _refined(mine, coarse[k], tols):
                    M = scans[u]
                    out[k] = (h[u], M if jobs[k][0].f is not None else np.ascontiguousarray(M[..., :n]))
                    del steps[k], coarse[k]
                else:
                    coarse[k], steps[k] = mine, 2 * steps[k]
    return out


@dataclass
class _Piece:
    """One smooth stretch, stacked over spectral parameters or for a single one.

    ``piece[i]`` is the stretch of parameter ``i`` alone.
    """

    lo: float
    hi: float
    flow: _PencilFlow | None = None  # constant coefficients, all parameters at once ...
    x_ref: float = 0.0
    y_ref: np.ndarray | None = None
    meshes: list[_MagnusMesh] | None = None  # ... or one Magnus mesh per parameter

    def __getitem__(self, i) -> "_Piece":
        if self.flow is not None:
            return _Piece(self.lo, self.hi, flow=self.flow[i], x_ref=self.x_ref, y_ref=self.y_ref[i].copy())
        return _Piece(self.lo, self.hi, meshes=[self.meshes[i]])

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        """Values of a single parameter at an array of points."""
        if self.flow is not None:
            return self.flow.apply(xs - self.x_ref, self.y_ref)
        return self.meshes[0].eval_many(xs)


def _smooth_coefficients(sys: SystemSpec, lo: float, hi: float, f) -> _StretchCoefficients | None:
    """Coefficients of a stretch with non-constant densities or a drive ``f``
    meeting a ``w`` density (it enters only through ``J^-1 w_dens f``), None
    for a constant flow."""
    if not any(seg.interval[0] < hi and seg.interval[1] > lo for seg in sys.w.segments):
        f = None
    if f is None and _stretch_is_constant(sys, lo, hi):
        return None
    return _StretchCoefficients(sys, lo, hi, f)


def _solve_stretch(
    sys: SystemSpec,
    lams: np.ndarray,
    lo: float,
    hi: float,
    x_from: float,
    Y_from: np.ndarray,
    meshed: tuple | None,
) -> tuple[_Piece, np.ndarray]:
    """Propagate the stack ``Y_from`` over ``[lo, hi]`` from one edge (``x_from``) to the other.

    ``meshed`` is ``(coeff, transfers)``, the stretch's coefficients and the
    :func:`_magnus_meshes` result of each parameter, None for a constant
    stretch.  Constant stretches flow all parameters at once: a stretch
    without ``q`` or without ``w`` density takes the flow of its density
    pair, decomposed on first use and kept in the system's store, a stretch
    with both the flow of its stacked matrices.
    """
    if meshed is not None:
        coeff, transfers = meshed
        for transfer in transfers:
            if isinstance(transfer, AccuracyError):
                raise transfer
        n = sys.dim
        driven = slice(None) if coeff.f is not None else slice(0)  # a drive reaches every column
        meshes = []
        for lam, (h, M), Y in zip(lams, transfers, Y_from):
            values = M[..., :n] @ Y.reshape(n, -1)
            values[..., driven] += M[..., n:]
            meshes.append(_MagnusMesh(x0=x_from, h=h, values=values.reshape((len(M),) + Y.shape),
                                      coeff=lambda pts, lam=lam: coeff.at(lam, pts), driven=driven))
        return _Piece(lo=lo, hi=hi, meshes=meshes), np.stack([mesh.end for mesh in meshes])
    x_to = hi if x_from == lo else lo
    Q, W = (fit.reshape(sys.dim, sys.dim) for fit in _fitted(sys, lo, hi))
    if Q.any() and W.any():
        flow = _PencilFlow.of(sys.J_inv @ (lams[:, None, None] * W - Q))
    else:
        flow = sys.derived.get(("flow", Q.tobytes(), W.tobytes()),
                               lambda: _PencilFlow.of(sys.J_inv @ (W if W.any() else -Q)))
        flow = flow.scaled(lams if W.any() else np.ones(len(lams)))
    piece = _Piece(lo=lo, hi=hi, flow=flow, x_ref=x_from, y_ref=Y_from)
    return piece, flow.apply(x_to - x_from, Y_from)


def _atom_drive(sys: SystemSpec, x: float, f: Callable[[float], np.ndarray] | None):
    """Column ``Dw(x) f(x)`` of the inhomogeneous atom condition, or None when it vanishes."""
    dw = sys.w.atom_at(x)
    if f is None or not np.any(dw):
        return None
    return (dw @ np.asarray(f(x), dtype=complex))[:, None]


def _transfer(
    sys: SystemSpec,
    lams: np.ndarray,
    x: float,
    value: np.ndarray,
    f: Callable[[float], np.ndarray] | None,
    direction: int,
) -> np.ndarray:
    """Cross the atom at ``x``: +1 maps stacked left limits to right limits."""
    bm, bp = jump_matrices(sys, x, lams)
    target, source = (bp, bm) if direction > 0 else (bm, bp)
    if sys.w.atom_at(x).any():
        cond = np.linalg.cond(target)
    else:  # B_plus and B_minus are free of lam: one gate per atom and direction
        cond = sys.derived.get(("cond", x, direction),
                               lambda: np.linalg.cond(jump_matrices(sys, x, 0.0)[1 if direction > 0 else 0]))
        cond = np.full(len(lams), cond)
    bad = ~np.isfinite(cond) | (cond > sys.tols.cond_cap)
    if bad.any():
        k = int(np.argmax(bad))
        raise SingularTransferError(x, complex(lams[k]), float(cond[k]))
    vec = value.ndim == 2
    rhs = source @ (value[..., None] if vec else value)
    drive = _atom_drive(sys, x, f)
    if drive is not None:
        rhs = rhs + direction * drive
    out = np.linalg.solve(target, rhs)
    return out[..., 0] if vec else out


# ---------------------------------------------------------------------------
# piecewise solutions


@dataclass
class PiecewiseSolution:
    """Solution data on the closure of one subinterval.

    ``points`` are the breakpoints (domain edges, atoms, segment edges, the
    initial point); ``left_values[i]``/``right_values[i]`` hold the one-sided
    limits there.  At the domain edges both limits coincide with the interior
    one-sided limit.  When ``lam`` is an array every value carries a leading
    axis over it, and ``solution[i]`` is the solution of ``lam[i]`` alone.
    """

    lam: complex
    lo: float
    hi: float
    points: list[float]
    left_values: list[np.ndarray]
    right_values: list[np.ndarray]
    pieces: list[_Piece]
    interval_index: int | None = None

    def __getitem__(self, i) -> "PiecewiseSolution":
        return PiecewiseSolution(
            lam=self.lam[i],
            lo=self.lo,
            hi=self.hi,
            points=self.points,
            left_values=[v[i].copy() for v in self.left_values],
            right_values=[v[i].copy() for v in self.right_values],
            pieces=[p[i] for p in self.pieces],
            interval_index=self.interval_index,
        )

    @cached_property
    def _points(self) -> np.ndarray:
        return np.asarray(self.points)

    def _limit(self, i: int, side: str) -> np.ndarray:
        """The stored limit at breakpoint ``i`` from ``side``, their mean for ``"balanced"``."""
        if side == "left":
            return self.left_values[i]
        if side == "right":
            return self.right_values[i]
        if side == "balanced":
            return 0.5 * (self.left_values[i] + self.right_values[i])
        raise ValueError(f"unknown side {side!r}")

    def many(self, xs: np.ndarray, side: str = "balanced") -> np.ndarray:
        """Values at an ascending array of points, stacked along a leading axis.

        A point on a breakpoint takes the stored limit from ``side``; the
        points between two breakpoints go to their piece as one slice.  A
        solution stacked over ``lam`` is evaluated one parameter at a time.
        A point outside ``[lo, hi]``, or NaN, raises :class:`ValueError`.
        """
        if side not in _SIDES:
            raise ValueError(f"unknown side {side!r}")
        xs = np.asarray(xs, dtype=float)
        if np.ndim(self.lam):
            return np.stack([self[i].many(xs, side) for i in range(len(self.lam))], axis=1)
        # xs[starts[i]:ends[i]] sit on breakpoint i, xs[ends[i]:starts[i + 1]] inside piece i
        starts = np.searchsorted(xs, self._points).tolist()
        ends = np.searchsorted(xs, self._points, "right").tolist()
        if starts[0] or ends[-1] < len(xs):
            raise ValueError(f"points outside [{self.lo}, {self.hi}]")
        out = np.empty((len(xs),) + self.left_values[0].shape, dtype=complex)
        for i, (start, end) in enumerate(zip(starts, ends)):
            if start < end:
                out[start:end] = self._limit(i, side)
            if i < len(self.pieces) and end < starts[i + 1]:
                out[end : starts[i + 1]] = self.pieces[i].eval_many(xs[end : starts[i + 1]])
        return out

    def value(self, x: float, side: str = "balanced") -> np.ndarray:
        """Value at one point: a breakpoint's stored limit, found by bisection,
        or else :meth:`many` of the point alone."""
        i = bisect.bisect_left(self.points, x)
        if i < len(self.points) and self.points[i] == x:
            return self._limit(i, side)
        return self.many(np.array([x]), side)[0]

    def left(self, x: float) -> np.ndarray:
        return self.value(x, "left")

    def right(self, x: float) -> np.ndarray:
        return self.value(x, "right")

    def balanced(self, x: float) -> np.ndarray:
        return self.value(x, "balanced")

    __call__ = balanced
    balanced_many = many


def _breakpoints_in(sys: SystemSpec, lo: float, hi: float, extra: Sequence[float]) -> list[float]:
    pts = set()
    for meas in (sys.q, sys.w):
        for b in meas.breakpoints():
            if lo < b < hi:
                pts.add(float(b))
    for b in extra:
        if lo < float(b) < hi:
            pts.add(float(b))
    return sorted(pts)


def _assert_jump_consistency(sys, lams, sol: PiecewiseSolution, f) -> None:
    # defensive check of the atom condition for every parameter; exact by
    # construction up to roundoff (domain edges are excluded: nothing is
    # continued across them)
    for x, lv, rv in zip(sol.points[1:-1], sol.left_values[1:-1], sol.right_values[1:-1]):
        if not sys.is_atom(x):
            continue
        if lv.ndim == 2:
            lv, rv = lv[..., None], rv[..., None]
        bm, bp = jump_matrices(sys, x, lams)
        resid = bp @ rv - bm @ lv
        drive = _atom_drive(sys, x, f)
        if drive is not None:
            resid = resid - drive
        resid = np.max(np.abs(resid), axis=(1, 2))
        scale = np.maximum(1.0, np.maximum(np.max(np.abs(lv), axis=(1, 2)), np.max(np.abs(rv), axis=(1, 2))))
        bad = resid > 1e-8 * scale
        if bad.any():
            raise AccuracyError(
                f"jump condition violated at x={x} (residual {resid[np.argmax(bad)]:.3e})"
            )


def _propagate(
    sys: SystemSpec,
    lo: float,
    hi: float,
    x0: float,
    solves: Sequence[tuple],
    interval_index: int | None,
) -> list[PiecewiseSolution]:
    """Per solve ``(lams, Y0, f)``, the solutions through ``u(x0) = Y0`` for
    every parameter of the 1-D array ``lams``, driven by ``f`` (None for
    none); at most one solve has a drive.

    The Magnus meshes of all solves are built first, in one
    :func:`_magnus_meshes` pass, so that a drive shares the steps of the row
    at its parameter on every stretch where their breakpoints agree.
    """
    if not (lo <= x0 <= hi):
        raise StructuralError(f"initial point {x0} outside [{lo}, {hi}]")
    if sys.is_atom(x0):
        raise StructuralError("initial point must not carry an atom")
    plans, jobs = [], []
    for lams, Y0, f in solves:
        extra = [x0]
        if f is not None:
            extra += list(getattr(f, "breakpoints", ()))
            supp = getattr(f, "support", None)
            if supp is not None:
                extra += list(supp)
        points = [lo] + _breakpoints_in(sys, lo, hi, extra) + [hi]
        i0 = points.index(x0)
        # the transfer products of a stretch do not depend on the value entering it
        smooth = [(i, coeff) for i in range(len(points) - 1)
                  if (coeff := _smooth_coefficients(sys, points[i], points[i + 1], f)) is not None]
        jobs += [(coeff, lam, *((points[i], points[i + 1]) if i >= i0 else (points[i + 1], points[i])))
                 for i, coeff in smooth for lam in lams]
        plans.append((points, i0, smooth))
    built = iter(_magnus_meshes(jobs, sys.tols))
    sols = []
    for (lams, Y0, f), (points, i0, smooth) in zip(solves, plans):
        meshed = {i: (coeff, [next(built) for _ in lams]) for i, coeff in smooth}
        sols.append(_chain(sys, lams, points, i0, np.asarray(Y0, dtype=complex), f, meshed, interval_index))
    return sols


def _chain(
    sys: SystemSpec,
    lams: np.ndarray,
    points: list[float],
    i0: int,
    Y0: np.ndarray,
    f: Callable[[float], np.ndarray] | None,
    meshed: dict,
    interval_index: int | None,
) -> PiecewiseSolution:
    """One solve of :func:`_propagate` from the point ``points[i0]``: forward
    to the last point, then backward to the first, each point's limit from
    the side the chain meets first, its transfer, then its other limit."""
    npts = len(points)
    Y0 = np.repeat(Y0[None], len(lams), axis=0)
    left_vals: list[np.ndarray | None] = [None] * npts
    right_vals: list[np.ndarray | None] = [None] * npts
    pieces: list[_Piece | None] = [None] * (npts - 1)
    left_vals[i0] = right_vals[i0] = Y0
    for step, end, met, other in ((1, npts - 1, left_vals, right_vals), (-1, 0, right_vals, left_vals)):
        cur = Y0
        for i in range(i0, end, step):
            if i != i0:
                met[i] = cur
                if sys.is_atom(points[i]):
                    cur = _transfer(sys, lams, points[i], cur, f, step)
                other[i] = cur
            k = min(i, i + step)  # the stretch between points i and i + step
            pieces[k], cur = _solve_stretch(sys, lams, points[k], points[k + 1], points[i], cur, meshed.get(k))
        if i0 != end:
            met[end] = other[end] = cur

    sol = PiecewiseSolution(
        lam=lams,
        lo=points[0],
        hi=points[-1],
        points=points,
        left_values=left_vals,
        right_values=right_vals,
        pieces=pieces,
        interval_index=interval_index,
    )
    _assert_jump_consistency(sys, lams, sol, f)
    return sol


def solve_ivp(
    sys: SystemSpec,
    j: int,
    lam: complex | np.ndarray,
    x0: float,
    u0: np.ndarray,
    f: Callable[[float], np.ndarray] | None = None,
    *,
    sing: SingularitySet | None = None,
) -> PiecewiseSolution:
    """Unique balanced solution through ``u(x0) = u0`` on subinterval ``j``.

    ``x0`` may be an edge of the closed subinterval, in which case ``u0``
    prescribes the one-sided limit there (legitimate whenever the coefficients
    are finite measures up to that edge, e.g. at regular endpoints and at all
    partition points).  An array ``lam`` gives the solutions stacked over it.
    """
    lo, hi = subintervals(sys, sing)[j]
    (sol,) = _propagate(sys, lo, hi, x0, [(_spectral_parameters(lam), u0, f)], j)
    return sol if np.ndim(lam) else sol[0]


def fundamental_matrix(
    sys: SystemSpec,
    j: int,
    lam: complex | np.ndarray,
    *,
    anchor: float | None = None,
    sing: SingularitySet | None = None,
) -> PiecewiseSolution:
    """Fundamental matrix on subinterval ``j``, equal to the identity at the anchor.

    An array ``lam`` gives the fundamental matrices stacked over it.
    """
    if sing is None:
        sing = partition_points(sys)
    if anchor is None:
        anchor = choose_anchors(sys, sing)[j]
    return solve_ivp(sys, j, lam, anchor, np.eye(sys.dim, dtype=complex), sing=sing)


class SolutionRow:
    """The ``n x n(N+1)`` row of all subinterval fundamental matrices.

    Each block lives on the closure of its subinterval and is extended to the
    whole interval by zero; at a shared partition point the balanced value of
    the two adjacent blocks is half their interior one-sided limit.  A row
    built for an array of spectral parameters returns values with a leading
    axis over them; ``row[i]`` is the row of parameter ``i`` alone.  Blocks
    of other widths (the drive solutions of a resolvent, one column each) are
    extended the same way.  Every reading goes through :meth:`many`; a single
    point is a batch of one.
    """

    def __init__(self, sys: SystemSpec, fundamentals: Sequence[PiecewiseSolution]):
        self.sys = sys
        self.fundamentals = list(fundamentals)
        self.lam = self.fundamentals[0].lam
        self.n = sys.dim
        #: the rates of the row's constant flows that transforms met (:func:`_flow_rates`)
        self.flow_rates = {}

    def __getitem__(self, i) -> "SolutionRow":
        return SolutionRow(self.sys, [fund[i] for fund in self.fundamentals])

    @property
    def blocks(self) -> int:
        return len(self.fundamentals)

    @cached_property
    def _layout(self) -> tuple[np.ndarray, list[slice]]:
        """The block edges, block ``j`` spanning ``edges[j]`` to ``edges[j + 1]``, and its columns."""
        edges = np.array([fund.lo for fund in self.fundamentals] + [self.fundamentals[-1].hi])
        stops = list(accumulate(fund.left_values[0].shape[-1] for fund in self.fundamentals))
        return edges, [slice(start, stop) for start, stop in zip([0] + stops, stops)]

    def many(self, xs: np.ndarray, side: str = "balanced") -> np.ndarray:
        """Row values at an ascending array of points, stacked along a leading axis.

        The points inside a block go to its solution as one slice.  At its own
        edges a block keeps only its interior one-sided limit: whole from the
        side it lies on, zero from the other, halved for ``"balanced"``.  A
        point outside the interval, or NaN, raises :class:`ValueError`.
        """
        if side not in _SIDES:
            raise ValueError(f"unknown side {side!r}")
        xs = np.asarray(xs, dtype=float)
        edges, columns = self._layout
        # xs[starts[j]:ends[j]] sit on edge j, xs[ends[j]:starts[j + 1]] inside block j
        starts = np.searchsorted(xs, edges).tolist()
        ends = np.searchsorted(xs, edges, "right").tolist()
        if starts[0] or ends[-1] < len(xs):
            raise ValueError(f"points outside [{edges[0]}, {edges[-1]}]")
        lead = self.fundamentals[0].left_values[0].shape[:-1]
        out = np.zeros((len(xs),) + lead + (columns[-1].stop,), dtype=complex)
        for j, (fund, cols) in enumerate(zip(self.fundamentals, columns)):
            if ends[j] < starts[j + 1]:
                out[ends[j] : starts[j + 1], ..., cols] = fund.many(xs[ends[j] : starts[j + 1]], side)
            for at, limit, inner in ((slice(starts[j], ends[j]), fund.right_values[0], "right"),
                                     (slice(starts[j + 1], ends[j + 1]), fund.left_values[-1], "left")):
                if at.start == at.stop or side not in (inner, "balanced"):
                    continue  # no points, or the side of the zero extension
                # + 0.0 adds the zero extension, as the mean of the two sides does
                out[at, ..., cols] = limit if side == inner else 0.5 * (limit + 0.0)
        return out

    def value(self, x: float, side: str = "balanced") -> np.ndarray:
        return self.many(np.array([x]), side)[0]

    def left(self, x: float) -> np.ndarray:
        return self.value(x, "left")

    def right(self, x: float) -> np.ndarray:
        return self.value(x, "right")

    def balanced(self, x: float) -> np.ndarray:
        return self.value(x, "balanced")

    __call__ = balanced
    balanced_many = many


def solution_row(
    sys: SystemSpec,
    lam: complex | np.ndarray,
    *,
    sing: SingularitySet | None = None,
    anchors: Sequence[float] | None = None,
) -> SolutionRow:
    """Build the full row of fundamental matrices.

    ``lam`` is one spectral parameter or a 1-D array of them; every
    subinterval is propagated for the whole array at once.  A failure inside
    an array is reported for the first parameter that fails on its own, as a
    loop over the parameters would report it.
    """
    if sing is None:
        sing = partition_points(sys)
    if anchors is None:
        anchors = choose_anchors(sys, sing)
    lams = _spectral_parameters(lam)
    try:
        funds = [
            fundamental_matrix(sys, j, lams, anchor=anchors[j], sing=sing)
            for j in range(len(anchors))
        ]
    except BlockweylError:
        if len(lams) > 1:
            for one in lams:
                solution_row(sys, one, sing=sing, anchors=anchors)
        raise
    row = SolutionRow(sys, funds)
    return row if np.ndim(lam) else row[0]


def drive_row(
    sys: SystemSpec,
    lam: complex,
    f: Callable[[float], np.ndarray],
    *,
    rows=(),
    sing: SingularitySet | None = None,
    anchors: Sequence[float] | None = None,
) -> tuple[SolutionRow, SolutionRow | None]:
    """The drive solutions of ``f`` at ``lam``, and the solution row at the parameters ``rows``.

    Block ``j`` of the drive row is the solution of ``J u' + q u = lam w u +
    w f`` on subinterval ``j`` that vanishes at the block's anchor, one
    column.  The row at the array ``rows`` (None when it is empty) is built
    with it, one :func:`_magnus_meshes` pass per block, so that the drive
    rides on the steps of the row at ``lam`` where both have a mesh; the row
    is bitwise :func:`solution_row` of ``rows``, and so is a failure of it.
    """
    if sing is None:
        sing = partition_points(sys)
    if anchors is None:
        anchors = choose_anchors(sys, sing)
    lams = _spectral_parameters(rows)
    solves = [(lams, np.eye(sys.dim, dtype=complex), None)] if len(lams) else []
    solves.append((_spectral_parameters(lam), np.zeros((sys.dim, 1), dtype=complex), f))
    try:
        blocks = [_propagate(sys, lo, hi, x0, solves, j)
                  for j, ((lo, hi), x0) in enumerate(zip(subintervals(sys, sing), anchors))]
    except BlockweylError:
        if len(lams):
            solution_row(sys, lams, sing=sing, anchors=anchors)
        raise
    *funds, drives = (SolutionRow(sys, fundamentals) for fundamentals in zip(*blocks))
    return drives[0], funds[0] if funds else None


def _paired_row(row: SolutionRow, drives: SolutionRow) -> SolutionRow | None:
    """A row and the drive row at its parameter as one row, block ``j`` the
    columns of its fundamental matrix then its drive column; None when the
    breakpoints of a block differ.

    Where the two meshes of a stretch coincide (start, step and step count)
    one mesh carries both, and a point between its nodes takes one sub-step
    for the row and the drive, the sub-step's drive column going to the last
    column; elsewhere each piece is read on its own.  Either way every value
    is bitwise the one the row or the drive row gives alone.
    """
    funds = []
    for Y, u in zip(row.fundamentals, drives.fundamentals):
        if Y.points != u.points:
            return None
        funds.append(PiecewiseSolution(
            lam=Y.lam, lo=Y.lo, hi=Y.hi, points=Y.points,
            left_values=[np.concatenate(pair, axis=-1) for pair in zip(Y.left_values, u.left_values)],
            right_values=[np.concatenate(pair, axis=-1) for pair in zip(Y.right_values, u.right_values)],
            pieces=[_paired_piece(a, b) for a, b in zip(Y.pieces, u.pieces)],
            interval_index=Y.interval_index,
        ))
    return SolutionRow(row.sys, funds)


def _paired_piece(a: _Piece, b: _Piece):
    """The pieces ``a`` and ``b`` of one stretch, read side by side (:func:`_paired_row`)."""
    if a.meshes is not None and b.meshes is not None:
        (ma,), (mb,) = a.meshes, b.meshes
        if (ma.x0, ma.h, len(ma.values)) == (mb.x0, mb.h, len(mb.values)):
            values = np.concatenate([ma.values, mb.values], axis=-1)
            driven = slice(ma.values.shape[-1], None) if mb.driven == slice(None) else mb.driven
            mesh = _MagnusMesh(ma.x0, ma.h, values, mb.coeff, driven)
            return _Piece(a.lo, a.hi, meshes=[mesh])
    return _SideBySide(a, b)


@dataclass
class _SideBySide:
    """Two pieces of one stretch whose values are read apart and joined."""

    a: _Piece
    b: _Piece

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        return np.concatenate([self.a.eval_many(xs), self.b.eval_many(xs)], axis=-1)


def row_integrand(
    row: SolutionRow, f: Callable[[float], np.ndarray]
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Integrand ``row^* dm f`` of :func:`blockweyl.measures.integrate_bv`.

    With ``row`` built at ``conj(lam)`` its integral is the transform of ``f``
    at ``lam``.  The row and ``f`` are evaluated once per batch of points,
    ``f`` through :func:`evaluate_many`, so point by point when it is a plain
    callable: the transforms hand it ``f`` already :func:`sampled`.  ``f``
    must evaluate to balanced values at atoms of the measure.
    """

    def integrand(xs: np.ndarray, dms: np.ndarray) -> np.ndarray:
        paired = np.einsum("mji,mjk->mik", np.conj(row.balanced_many(xs)), dms)
        fs = evaluate_many(f, xs)
        return np.einsum("mik,mk->mi", paired, fs)

    return integrand


def _matrix_rates(C: np.ndarray) -> tuple[float, float, float]:
    """``(||C||_2, spectral radius, condition number of the eigenbasis)`` of
    one matrix; where LAPACK finds no eigenbasis the norm stands for the radius."""
    norm = float(np.linalg.norm(C, 2))
    try:
        mu, V = np.linalg.eig(C)
    except np.linalg.LinAlgError:
        return norm, norm, 1.0
    return norm, float(np.max(np.abs(mu))), float(np.linalg.cond(V))


def _stretch_rates(sys: SystemSpec, lam: complex, lo: float, hi: float) -> tuple[float, float, float]:
    """:func:`_matrix_rates` of ``J^-1 (lam W - Q)`` on the constant stretch ``(lo, hi)``.

    Where the coefficient is ``lam M`` (no ``q`` density) or ``M`` (no ``w``
    density) they are ``|lam|`` or 1 times those of ``M``, kept in the
    system's store by the stretch's pencil ``(Q, W)``: every stretch of that
    pencil, and every parameter, shares one decomposition.
    """
    Q, W = (fit.reshape(sys.dim, sys.dim) for fit in _fitted(sys, lo, hi))
    if Q.any() and W.any():
        return _matrix_rates(sys.J_inv @ (lam * W - Q))
    norm, radius, cond = sys.derived.get(("rates", Q.tobytes(), W.tobytes()),
                                         lambda: _matrix_rates(sys.J_inv @ (W if W.any() else -Q)))
    scale = abs(lam) if W.any() else 1.0
    return scale * norm, scale * radius, cond


def _row_rate(sys: SystemSpec, lam: complex, lo: float, hi: float) -> float:
    """A bound on the rate of the solution row at ``lam`` on the stretch
    ``(lo, hi)``, 0 where it has no fit: a generic density, or a non-constant
    one on an unbounded stretch.

    On a constant stretch it is the spectral radius of ``J^-1 (lam W - Q)``,
    never above the 2-norm that bounds it, since the eigenvalue solver may
    round past it (P1's at 2 reads 2 + 4e-16, its norm 2), both from
    :func:`_stretch_rates`; on a fitted one it is ``sum_k ||C_k||_2`` over
    the Chebyshev coefficients ``C_k`` of ``J^-1 (lam w(x) - q(x))`` in the
    stretch's fit (:func:`_fitted`), a bound of that matrix's norm there.
    """
    degrees = [_density_degree(meas, lo, hi) for meas in (sys.q, sys.w)]
    if None in degrees or (max(degrees) and not np.isfinite(hi - lo)):
        return 0.0
    if not max(degrees):
        norm, radius, _ = _stretch_rates(sys, lam, lo, hi)
        return min(norm, radius)
    q, w = (fit.reshape(len(fit), sys.dim, sys.dim) for fit in _fitted(sys, lo, hi))
    C = np.zeros((max(len(q), len(w)), sys.dim, sys.dim), dtype=complex)
    C[: len(w)] += lam * w
    C[: len(q)] -= q
    C = sys.J_inv @ C
    return float(np.sum(np.linalg.norm(C, 2, axis=(1, 2))))


def _row_period(sys: SystemSpec, lam: complex, lo: float, hi: float) -> Callable[[float, float], float]:
    """``widest`` of :func:`blockweyl.quadrature.integrate` for a transform
    integral over ``[lo, hi]``: one period ``2 pi / rho`` of the row at
    ``lam`` on a panel, ``rho`` the largest :func:`_row_rate` of the stretches
    it meets, and no limit where that is 0.  The rates are taken on the first
    call, so a transform that leaves no stretch to the adaptive quadrature
    takes none."""
    a, b = sys.interval

    @cache
    def rates() -> list:
        points = [a] + _breakpoints_in(sys, a, b, ()) + [b]
        return [(s, t, _row_rate(sys, lam, s, t)) for s, t in pairwise(points) if s < hi and t > lo]

    def widest(s: float, t: float) -> float:
        rho = max((r for u, v, r in rates() if u < t and v > s), default=0.0)
        return 2 * np.pi / rho if rho else np.inf

    return widest


# Sizes of the Gauss-Legendre rules of the transforms on constant stretches,
# the Bernstein-ellipse parameters r their error bound is minimized over, and
# the splits of a piece into 2^j equal parts; 2^13 parts of the smallest size
# would exceed the node cap
_GAUSS_SIZES = np.array(sorted({int(m * 2**k) for k in range(3, 10) for m in (1.0, 1.5)} | {1024}))
_ELLIPSE = 1.0 + np.geomspace(1e-3, 30.0, 48)
_SPLITS = tuple(2**j for j in range(13))
_LOG_R = np.log(_ELLIPSE)
_REACH = _ELLIPSE - 1.0
_TWO_LOG_R = 2 * _LOG_R
_BOUND_CONST = math.log(64 / 15) - np.log(_ELLIPSE**2 - 1.0)


def _gauss_need(rates: np.ndarray, half: np.ndarray, K: int, tol: float) -> np.ndarray:
    """Fewest Gauss-Legendre nodes whose error bound (:func:`_gauss_rules`)
    is at most ``tol``, minimized over ``r``, on pieces of half-widths
    ``half``; row ``i`` of ``rates`` is ``(norm, radius, log cond)`` of piece
    ``i`` (:func:`_flow_rates`)."""
    norm, radius, log_cond = rates.T[:, :, None]
    reach = half[:, None] * _REACH
    log_m = np.minimum(norm * reach, radius * reach + log_cond) + K * _LOG_R
    return ((log_m + _BOUND_CONST - math.log(tol)) / _TWO_LOG_R).min(axis=1)


def _flow_rates(sys: SystemSpec, row: SolutionRow, lam: complex, a: float, b: float) -> tuple | None:
    """``(norm, radius, log cond)`` of :func:`_stretch_rates` on the one
    constant flow of ``row``, built at ``lam``, that the piece ``(a, b)``
    lies in; None where it leaves its block, meets a Magnus stretch or meets
    two flows.

    The piece may meet several stretches of the block, cut at points where
    the row is smooth (an anchor, an edge between equal densities), since it
    has no atom inside; they are one flow when their fits are equal.  The
    rates are kept on the row, per stretches met, so that the transforms of
    every ``f`` against it read each flow once.
    """
    edges, _ = row._layout
    j = bisect.bisect_right(edges, a) - 1
    if not 0 <= j < row.blocks or b > edges[j + 1]:
        return None
    fund = row.fundamentals[j]
    i, k = bisect.bisect_right(fund.points, a) - 1, bisect.bisect_left(fund.points, b)
    key = (lam, j, i, k)
    if key not in row.flow_rates:
        stretches = list(pairwise(fund.points[i : k + 1]))
        rates = None
        if all(piece.flow is not None for piece in fund.pieces[i:k]):
            fits = [np.concatenate(_fitted(sys, *st), axis=None) for st in stretches]
            if all(np.array_equal(fit, fits[0]) for fit in fits[1:]):
                norm, radius, cond = _stretch_rates(sys, lam, *stretches[0])
                rates = norm, radius, math.log(cond)
        row.flow_rates[key] = rates
    return row.flow_rates[key]


def _gauss_rules(sys: SystemSpec, row: SolutionRow, f, lam: complex) -> list[tuple[float, float, int]]:
    """The ``fixed`` pieces of :func:`blockweyl.measures.integrate_bv` for the
    transform of ``f``, as :func:`sampled` gives it, against ``row`` built at ``lam``.

    A piece of ``f``'s :class:`ChebyshevForm` that lies in one constant
    stretch of the row (a :class:`_PencilFlow` of any kind) has an entire
    integrand there: the row is ``exp((x - x0) A) Y0`` and ``f`` a polynomial
    of degree below the padded series length ``K``; the stretch may be cut
    where the row is smooth, at an anchor.  On the Bernstein ellipse
    ``E_r`` of a piece of half-width ``h`` that integrand is at most ``M``
    times its scale on the piece, ``log M <= rho h (r - 1) + K log r +
    log kappa`` with ``rho`` the spectral radius of ``A`` and ``kappa`` the
    condition of its eigenbasis, or ``rho`` the norm of ``A`` and ``kappa =
    1`` where that is smaller (:func:`_stretch_rates`); an ``n``-point
    Gauss-Legendre rule is then within ``64 M / (15 (r^2 - 1) r^(2n))`` of
    the integral (L. N. Trefethen, Is Gauss quadrature better than
    Clenshaw-Curtis?, SIAM Review 50, 2008).  The fewest nodes that bring
    this bound, minimized over ``r``, down to the quadrature's relative
    tolerance are rounded up to ``_GAUSS_SIZES``, for all pieces in one
    pass; a piece that needs more than the largest size is split into the
    fewest equal parts (a power of two) that each need at most that, sized
    the same way.  A piece whose nodes would exceed the adaptive budget's
    (``MAX_PANELS`` panels of 15), one of a Magnus stretch, one that meets
    two flows and a piece the form did not resolve keep the adaptive
    quadrature.
    """
    form = f
    while isinstance(form, VectorFunction):
        form = form.fn
    if not isinstance(form, ChebyshevForm):
        return []
    pieces = [(a, b, rates) for a, b in form.edges.tolist()
              if (rates := _flow_rates(sys, row, lam, a, b)) is not None]
    if not pieces:
        return []
    K, tol = form.coeffs.shape[1], sys.tols.quad_rel
    edges = np.array([(a, b) for a, b, _ in pieces])
    needs = _gauss_need(np.array([rates for *_, rates in pieces]), 0.5 * (edges[:, 1] - edges[:, 0]), K, tol)
    chosen = []
    for (a, b, rates), need in zip(pieces, needs.tolist()):
        for parts in _SPLITS:
            if parts > 1:
                need = float(_gauss_need(np.array([rates]), np.array([0.5 * (b - a) / parts]), K, tol)[0])
            if need <= _GAUSS_SIZES[-1]:
                chosen.append((a, b, parts, need))
                break
    sizes = _GAUSS_SIZES[np.searchsorted(_GAUSS_SIZES, [need for *_, need in chosen])].tolist()
    rules = []
    for (a, b, parts, _), size in zip(chosen, sizes):
        if parts * size <= quadrature.MAX_PANELS * 15:
            cuts = np.linspace(a, b, parts + 1).tolist() if parts > 1 else (a, b)
            rules += [(c, d, size) for c, d in pairwise(cuts)]
    return rules


def forward_transform_compact(
    sys: SystemSpec,
    f: Callable[[float], np.ndarray],
    lam: complex,
    *,
    row_conj: SolutionRow | None = None,
    sing: SingularitySet | None = None,
    anchors: Sequence[float] | None = None,
) -> np.ndarray:
    """Transform ``f`` against the solution row: ``int row(., conj(lam))^* w f``.

    ``f`` must be compactly supported (or the interval finite) and evaluate to
    balanced values at atoms of ``w``.  The integral is
    :func:`blockweyl.measures.integrate_bv` of :func:`row_integrand` over the
    support of ``f`` clipped to the interval, with ``f`` read through
    :func:`sampled`: a plain callable is called on its Chebyshev points and at
    the atoms, not once per node, and a form already sampled is used as it
    is.  Each resolved piece of that form inside a constant stretch takes a
    Gauss-Legendre rule sized a priori (:func:`_gauss_rules`), all of them in
    one evaluation of the integrand.  The rest takes adaptive quadrature
    started on panels no wider than one period of the row
    (:func:`_row_period`): a wider panel fails the Kronrod-Gauss test at the
    default tolerance, so the adaptive loop would bisect it anyway, and it
    still certifies the result.
    """
    if row_conj is None:
        row_conj = solution_row(sys, np.conj(lam), sing=sing, anchors=anchors)
    a, b = sys.interval
    supp = getattr(f, "support", None)
    lo = max(a, supp[0]) if supp else a
    hi = min(b, supp[1]) if supp else b
    if hi <= lo:
        return np.zeros(sys.dim * row_conj.blocks, dtype=complex)
    breaks = list(getattr(f, "breakpoints", ())) + sys.atom_positions()
    f = sampled(sys, f)
    return integrate_bv(
        row_integrand(row_conj, f), sys.w, IntervalSpec(lo, hi),
        breakpoints=breaks, tols=sys.tols, widest=_row_period(sys, np.conj(lam), lo, hi),
        fixed=_gauss_rules(sys, row_conj, f, np.conj(lam)),
    )


def wronskian_defect(
    sys: SystemSpec,
    j: int,
    lam: complex,
    grid: Sequence[float] | int = 50,
    *,
    sing: SingularitySet | None = None,
    anchor: float | None = None,
) -> float:
    """Largest residual of the two Wronskian-type identities on a sample grid.

    For a fundamental matrix ``U`` normalized at a common anchor the products
    ``U(x, conj(lam))^* J U(x, lam)`` and ``U(x, lam) J^-1 U(x, conj(lam))^*``
    are constant (equal to ``J`` and ``J^-1``); both are checked at both
    one-sided limits over the grid.
    """
    if sing is None:
        sing = partition_points(sys)
    if anchor is None:
        anchor = choose_anchors(sys, sing)[j]
    pair = fundamental_matrix(sys, j, np.array([lam, np.conj(lam)]), anchor=anchor, sing=sing)
    if isinstance(grid, int):
        xs = np.linspace(pair.lo, pair.hi, grid)
    else:
        xs = np.sort(np.asarray(list(grid), dtype=float))
    worst = 0.0
    for side in ("left", "right"):
        values = pair.many(xs, side)
        u, uc_star = values[:, 0], np.conj(np.swapaxes(values[:, 1], -1, -2))
        r1 = np.abs(uc_star @ sys.J @ u - sys.J).max(initial=0.0)
        r2 = np.abs(u @ sys.J_inv @ uc_star - sys.J_inv).max(initial=0.0)
        worst = max(worst, float(r1), float(r2))
    return worst
