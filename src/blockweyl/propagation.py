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
(:func:`_magnus_meshes`), each mesh bitwise the one its parameter gets alone.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.chebyshev import chebvander
# never called: the benchmark's tracer finds the ODE layer and the expm kernel
# through these bindings
from scipy.integrate import solve_ivp as _scipy_solve_ivp
from scipy.linalg import expm as _scipy_expm

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
    array of shape ``(0,)``.
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
    :class:`~blockweyl.transform.SpectralSynthesis`), otherwise one ``fn``
    call per point.  A single point is a batch of one.
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
    """Degree ``m`` and scaling ``s`` of :func:`_expm_stack` for the stack ``A``."""
    norm = np.abs(A).sum(axis=-2).max(initial=0.0)
    m = next((m for m, theta in _PADE_THETA if norm <= theta), 13)
    s = int(np.ceil(np.log2(norm / _PADE_THETA[-1][1]))) if norm > _PADE_THETA[-1][1] else 0
    return m, s


def _expm_stack(A: np.ndarray, order: tuple[int, int] | None = None) -> np.ndarray:
    """``exp(A)`` of every matrix of a stack ``(..., n, n)``.

    Scaling and squaring of the diagonal Padé approximant ``r = (V - U)^-1
    (V + U)``, ``U`` odd and ``V`` even in ``A`` (Higham 2005): one degree
    serves the stack, by default the lowest whose ``theta`` bounds its
    largest 1-norm; beyond ``theta_13`` the stack is scaled by ``2^-s`` and
    ``r`` squared ``s`` times.  ``order = (m, s)`` imposes degree and
    scaling, so that stacks joined into one call keep their own.  A zero
    matrix gives the identity exactly.
    """
    m, s = order or _pade_order(A)
    if s:
        A = A / 2.0**s
    b = _PADE_COEFFS[m]
    eye = np.eye(A.shape[-1])
    A2 = A @ A
    powers = [A2]  # A^2, A^4, ..., A^(m-1)
    for _ in range(m // 2 - 1):
        powers.append(powers[-1] @ A2)
    U = A @ sum((b[2 * k + 3] * P for k, P in enumerate(powers)), b[1] * eye)
    V = sum((b[2 * k + 2] * P for k, P in enumerate(powers)), b[0] * eye)
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
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
    return X @ Y - Y @ X


def _magnus_exponents(A: np.ndarray, h) -> np.ndarray:
    """Sixth-order Magnus exponents of steps of signed length ``h``.

    ``A[..., i, :, :]`` is the coefficient at the step's Gauss node ``i``; the
    scheme is that of Blanes, Casas and Ros (BIT 40, 2000), with real weights,
    so ``conj(lam)`` gets the exponents ``-(J Omega J^-1)^*`` of ``lam``.
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


def _stretch_fits(sys: SystemSpec, lo: float, hi: float) -> tuple[list, tuple]:
    """Chebyshev fits of the ``q`` and ``w`` densities of one stretch (None for
    a generic density), and the pairings of :func:`_transfer_pairs` without and
    with a drive row.  A degree-0 fit is the density itself, at the stretch's
    middle, which for an unbounded (constant) stretch is its infinite end."""
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
    # J and J^-1, padded for the drive row, pair a transfer with that of conj(lam)
    n = sys.dim
    pairings = tuple([np.eye(n + pad, dtype=complex) for _ in range(2)] for pad in (0, 1))
    for J, Jinv in pairings:
        J[:n, :n], Jinv[:n, :n] = sys.J, sys.J_inv
    return fits, pairings


def _fitted(sys: SystemSpec, lo: float, hi: float) -> tuple[list, tuple]:
    """:func:`_stretch_fits` of a stretch, made on its first solve and kept
    in the system's store; a stretch fitted again gets the fit it had."""
    return sys.derived.get(("fit", lo, hi), lambda: _stretch_fits(sys, lo, hi))


class _StretchCoefficients:
    """Coefficient matrices ``J^-1 (lam w - q)`` of one smooth stretch, at any of its points.

    A density whose segment gives its degree ``d`` is evaluated once, at
    ``d + 1`` Chebyshev points of the stretch, and interpolated from there; a
    generic one is evaluated at every point asked for.  The fits are kept in
    the system's store (:func:`_fitted`).  With a drive ``f`` the matrices
    are augmented to ``[[A, J^-1 w f], [0, 0]]``, whose flow carries
    ``(u, 1)``.
    """

    def __init__(self, sys: SystemSpec, lo: float, hi: float, f: Callable[[float], np.ndarray] | None):
        self.sys, self.f = sys, f
        self.n = sys.dim
        self.dim = self.n + (f is not None)
        self.mid, self.half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        self.fits, pairings = _fitted(sys, lo, hi)
        self.pairing = pairings[f is not None]

    def densities(self, xs: np.ndarray) -> tuple:
        """``(q, w, f)`` at the points ``xs``, ``f`` None without a drive: what
        :meth:`assemble` needs, the same for every parameter.  Both fits read
        the leading columns of one Chebyshev matrix."""
        degree = max((len(fit) - 1 for fit in self.fits if fit is not None), default=-1)
        basis = chebvander((xs - self.mid) / self.half, degree) if degree >= 0 else None
        q, w = (
            meas.density_many(xs) if fit is None else (basis[:, : len(fit)] @ fit).reshape(len(xs), self.n, self.n)
            for meas, fit in zip((self.sys.q, self.sys.w), self.fits)
        )
        return q, w, None if self.f is None else evaluate_many(self.f, xs)

    def assemble(self, lam: complex, q: np.ndarray, w: np.ndarray, fs: np.ndarray | None) -> np.ndarray:
        """Stacked coefficient matrices at ``lam`` from :meth:`densities`."""
        A = self.sys.J_inv @ (lam * w - q)
        if fs is None:
            return A
        out = np.zeros((len(fs), self.dim, self.dim), dtype=complex)
        out[:, : self.n, : self.n] = A
        out[:, : self.n, self.n] = (self.sys.J_inv @ (w @ fs[..., None]))[..., 0]
        return out

    def at(self, lam: complex, xs: np.ndarray) -> np.ndarray:
        """Stacked coefficient matrices at the points ``xs``."""
        return self.assemble(lam, *self.densities(xs))


def _prefix_products(E: np.ndarray) -> np.ndarray:
    """``M[j, k] = E[j, k-1] ... E[j, 0]``, ``M[j, 0]`` the identity, by a
    doubling scan over the steps ``k`` of each stack ``E[j]``."""
    M = np.concatenate([np.broadcast_to(np.eye(E.shape[-1], dtype=complex), (len(E), 1) + E.shape[2:]), E], axis=1)
    shift = 1
    while shift < M.shape[1]:
        M[:, shift:] = M[:, shift:] @ M[:, :-shift]
        shift *= 2
    return M


def _refined(fine, coarse, tols) -> bool:
    """Richardson test for a sixth-order method: ``|fine - coarse| / 63`` within tolerance."""
    return all(
        np.abs(f - c).max() <= 63.0 * (tols.ode_atol + tols.ode_rtol * np.abs(f).max())
        for f, c in zip(fine, coarse)
    )


@dataclass
class _MagnusMesh:
    """One parameter's Magnus solution on a stretch.

    ``values[k]`` is the solution at ``x0 + k h``.  A point between mesh
    points is reached by one Magnus sub-step from the mesh point before it in
    the direction of propagation, with the coefficient ``coeff`` at the
    sub-step's Gauss nodes.  Rows past ``dim`` carry the drive of an
    inhomogeneous solve and are dropped.
    """

    x0: float
    h: float
    values: np.ndarray
    coeff: Callable[[np.ndarray], np.ndarray]
    dim: int

    @property
    def end(self) -> np.ndarray:
        return self.values[-1][: self.dim]

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        k = np.clip(np.floor((xs - self.x0) / self.h).astype(int), 0, len(self.values) - 2)
        s = xs - (self.x0 + k * self.h)
        d = self.values.shape[1]
        A = self.coeff(((xs - s)[:, None] + s[:, None] * _GAUSS).ravel()).reshape(len(xs), 3, d, d)
        start = self.values[k]
        out = _expm_stack(_magnus_exponents(A, s)) @ start.reshape(len(xs), d, -1)
        return out.reshape(start.shape)[:, : self.dim]


def _transfer_pairs(P: np.ndarray, J: np.ndarray, Jinv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked transfers ``P`` of a stretch and ``J P^-1 J^-1``, the adjoints of those at ``conj(lam)``."""
    try:
        return P, J @ np.linalg.inv(P) @ Jinv
    except np.linalg.LinAlgError:  # a mesh too coarse to resolve anything
        if len(P) == 1:
            return P, np.full_like(P, np.nan)
        return P, np.concatenate([_transfer_pairs(p[None], J, Jinv)[1] for p in P])


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

    A job ``(coeff, lam, x_from, x_to)`` is one parameter on one stretch.
    Its step count starts from ``|x_to - x_from| (1 + |lam|)``, at most half
    the cap, and doubles until the Richardson estimate of the stretch's
    transfer matrix meets ``ode_rtol``/``ode_atol``.  The estimate also
    covers the transfer at ``conj(lam)`` (:func:`_transfer_pairs`), so both
    parameters choose the same mesh and the Wronskian identity holds to
    roundoff.

    A round takes every unfinished job one doubling further: the densities
    are evaluated once per stretch and step count, the exponents in one
    :func:`_magnus_exponents` call per state size, and the step exponentials
    in one :func:`_expm_stack` call per group of meshes of equal size and
    Padé order, each mesh at the order its own stack selects (Higham 2005).
    So every mesh is bitwise the mesh its job gets alone.  Returns per job
    ``(h, M)``, the step and the transfer products of :func:`_prefix_products`,
    or, past ``_MAX_STEPS`` steps, the :class:`AccuracyError` to raise where
    the propagation reaches that stretch.
    """
    steps = {k: min(max(2, int(np.ceil(abs(x_to - x_from) * (1.0 + abs(lam)) * _STEPS_PER_UNIT))), _MAX_STEPS // 2)
             for k, (_, lam, x_from, x_to) in enumerate(jobs)}
    out: list = [None] * len(jobs)
    coarse: dict = {}
    while steps:
        for k, (_, lam, x_from, x_to) in enumerate(jobs):
            if steps.get(k, 0) > _MAX_STEPS:
                del steps[k]
                out[k] = AccuracyError(
                    f"Magnus mesh on [{min(x_from, x_to)}, {max(x_from, x_to)}] needs more than "
                    f"{_MAX_STEPS} steps at lam={complex(lam)}"
                )
        h = {k: (jobs[k][3] - jobs[k][2]) / n for k, n in steps.items()}
        # jobs on one stretch at one step count share their nodes
        nodesets = _grouped({k: (jobs[k][0], jobs[k][2], n) for k, n in steps.items()})
        stacks = {}  # per job: coefficients, then exponents, then step exponentials
        for ks in nodesets:
            coeff, _, x_from, _ = jobs[ks[0]]
            n = steps[ks[0]]
            densities = coeff.densities((x_from + h[ks[0]] * (np.arange(n)[:, None] + _GAUSS)).ravel())
            for k in ks:
                stacks[k] = coeff.assemble(jobs[k][1], *densities).reshape(n, 3, coeff.dim, coeff.dim)
        for ks in _grouped({k: a.shape[-1] for k, a in stacks.items()}):
            hs = np.repeat([h[k] for k in ks], [steps[k] for k in ks])
            stacks.update(zip(ks, _joined(_magnus_exponents, [stacks[k] for k in ks], hs)))
        order = {k: (_pade_order(a), a.shape[-1]) for k, a in stacks.items()}
        for ks in _grouped(order):
            stacks.update(zip(ks, _joined(_expm_stack, [stacks[k] for k in ks], order[ks[0]][0])))
        for ks in nodesets:
            M = _prefix_products(np.stack([stacks[k] for k in ks]))
            for k, Mk, ends in zip(ks, M, zip(*_transfer_pairs(M[:, -1], *jobs[ks[0]][0].pairing))):
                if k in coarse and _refined(ends, coarse[k], tols):
                    out[k] = (h[k], Mk)
                    del steps[k]
                else:
                    coarse[k], steps[k] = ends, 2 * steps[k]
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
        if coeff.dim > coeff.n:  # the drive row
            Y_from = np.concatenate([Y_from, np.ones((len(lams), 1) + Y_from.shape[2:])], axis=1)
        meshes = [
            _MagnusMesh(x0=x_from, h=h, values=M @ Y, coeff=lambda pts, lam=lam: coeff.at(lam, pts), dim=coeff.n)
            for lam, (h, M), Y in zip(lams, transfers, Y_from)
        ]
        return _Piece(lo=lo, hi=hi, meshes=meshes), np.stack([mesh.end for mesh in meshes])
    x_to = hi if x_from == lo else lo
    Q, W = (fit.reshape(sys.dim, sys.dim) for fit in _fitted(sys, lo, hi)[0])
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
    lams: np.ndarray,
    lo: float,
    hi: float,
    x0: float,
    Y0: np.ndarray,
    f: Callable[[float], np.ndarray] | None,
    interval_index: int | None,
) -> PiecewiseSolution:
    """Solutions through ``u(x0) = Y0`` for every parameter of the 1-D array ``lams``."""
    if not (lo <= x0 <= hi):
        raise StructuralError(f"initial point {x0} outside [{lo}, {hi}]")
    if sys.is_atom(x0):
        raise StructuralError("initial point must not carry an atom")
    Y0 = np.repeat(np.asarray(Y0, dtype=complex)[None], len(lams), axis=0)

    extra = [x0]
    if f is not None:
        extra += list(getattr(f, "breakpoints", ()))
        supp = getattr(f, "support", None)
        if supp is not None:
            extra += list(supp)
    points = [lo] + _breakpoints_in(sys, lo, hi, extra) + [hi]
    npts = len(points)
    i0 = points.index(x0)

    left_vals: list[np.ndarray | None] = [None] * npts
    right_vals: list[np.ndarray | None] = [None] * npts
    pieces: list[_Piece | None] = [None] * (npts - 1)
    left_vals[i0] = right_vals[i0] = Y0

    # every Magnus mesh first, in shared rounds: the transfer products of a
    # stretch do not depend on the value entering it
    smooth = [(i, coeff) for i in range(npts - 1)
              if (coeff := _smooth_coefficients(sys, points[i], points[i + 1], f)) is not None]
    built = iter(_magnus_meshes([
        (coeff, lam, *((points[i], points[i + 1]) if i >= i0 else (points[i + 1], points[i])))
        for i, coeff in smooth for lam in lams
    ], sys.tols))
    meshed = {i: (coeff, [next(built) for _ in lams]) for i, coeff in smooth}

    # forward to hi, then backward to lo: a point's limit from the side the
    # chain meets first, its transfer, then its other limit
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
        lo=lo,
        hi=hi,
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
    sol = _propagate(sys, _spectral_parameters(lam), lo, hi, x0, u0, f, j)
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


def row_integrand(
    row: SolutionRow, f: Callable[[float], np.ndarray]
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Integrand ``row^* dm f`` of :func:`blockweyl.measures.integrate_bv`.

    With ``row`` built at ``conj(lam)`` its integral is the transform of ``f``
    at ``lam``.  The row and ``f`` are evaluated once per batch of points,
    ``f`` through :func:`evaluate_many` (point by point only when it is a
    plain callable); ``f`` must evaluate to balanced values at atoms of the
    measure.
    """

    def integrand(xs: np.ndarray, dms: np.ndarray) -> np.ndarray:
        paired = np.einsum("mji,mjk->mik", np.conj(row.balanced_many(xs)), dms)
        fs = evaluate_many(f, xs)
        return np.einsum("mik,mk->mi", paired, fs)

    return integrand


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
    support of ``f`` clipped to the interval.
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
    return integrate_bv(
        row_integrand(row_conj, f), sys.w, IntervalSpec(lo, hi),
        breakpoints=breaks, tols=sys.tols,
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
