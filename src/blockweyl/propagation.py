"""Solutions of ``J u' + (q - lam w) u = w f`` as balanced BV functions.

Between atoms and segment edges the equation is a smooth linear ODE,

    ``u' = J^-1 (lam * w_dens(x) - q_dens(x)) u + J^-1 w_dens(x) f(x)``,

integrated either in closed form (constant coefficients on the stretch) or
with an adaptive embedded Runge-Kutta scheme.  Crossing an atom applies the
transfer

    ``u_plus = B_plus^-1 (B_minus u_minus + Dw(x) f(x))``,

so a solution is a list of smooth pieces plus stored one-sided limits at its
breakpoints; its value at a breakpoint is always understood as balanced.

Propagation runs on a 1-D array of spectral parameters at once: every stored
value carries a leading axis over them, and a single parameter is a batch of
one.  Constant stretches and atom transfers use stacked LAPACK calls; other
stretches are integrated once per parameter.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp as _scipy_solve_ivp
from scipy.linalg import expm

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


@dataclass(frozen=True, eq=False)
class VectorFunction:
    """Vector-valued function with optional support and breakpoint hints.

    The callable must return *balanced* values at atoms; the solver and the
    transforms never infer them.
    """

    fn: Callable[[float], np.ndarray]
    support: tuple[float, float] | None = None
    breakpoints: tuple[float, ...] = ()

    def __call__(self, x: float) -> np.ndarray:
        val = np.asarray(self.fn(x), dtype=complex)
        if self.support is not None and not (self.support[0] <= x <= self.support[1]):
            return np.zeros_like(val)
        return val


# ---------------------------------------------------------------------------
# smooth stretches


def _spectral_parameters(lam) -> np.ndarray:
    """``lam`` as a 1-D complex array; a single parameter is a batch of one."""
    return np.atleast_1d(np.asarray(lam, dtype=complex))


def _diagonalize(A: np.ndarray):
    """``(mu, V, Vinv, ok)`` for a stack of nonzero matrices.

    ``ok`` marks the eigendecompositions that reconstruct their matrix and
    have a well-conditioned basis.  A stack on which LAPACK fails is retried
    one matrix at a time, so a failure costs no other matrix its decomposition.
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
    return mu, V, Vinv, (np.linalg.cond(V) < 1e8) & (recon <= 1e-12 * scale)


class _ConstantFlow:
    """Flows ``Y -> exp(A dx) Y`` for constant coefficient matrices.

    ``A`` is one ``(n, n)`` matrix or a stack ``(m, n, n)`` with one matrix per
    spectral parameter; ``flow[i]`` is the flow of matrix ``i`` alone.  A
    matrix whose eigendecomposition passed the gates (``diag``) flows through
    it, any other nonzero one through ``expm``; ``mu``, ``V`` and ``Vinv`` are
    None when no matrix uses them.
    """

    def __init__(self, A, mu, V, Vinv, diag, zero):
        self.A, self.mu, self.V, self.Vinv, self.diag, self.zero = A, mu, V, Vinv, diag, zero
        n_zero, n_diag = np.count_nonzero(zero), np.count_nonzero(diag)
        if n_zero == zero.size:
            self.kind = "zero"
        elif n_diag == diag.size:
            self.kind = "diag"
        elif n_zero + n_diag == 0:
            self.kind = "expm"
        else:
            self.kind = "mixed"

    @classmethod
    def of(cls, A: np.ndarray) -> "_ConstantFlow":
        """Flows of a stack ``(m, n, n)``, decomposed with stacked LAPACK calls."""
        zero = ~A.any(axis=(1, 2))
        live = np.flatnonzero(~zero)
        if len(live) == len(A):
            return cls(A, *_diagonalize(A), zero)
        diag = np.zeros(len(A), dtype=bool)
        if not live.size:
            return cls(A, None, None, None, diag, zero)
        mu = np.zeros(A.shape[:-1], dtype=complex)
        V, Vinv = np.zeros_like(A), np.zeros_like(A)
        mu[live], V[live], Vinv[live], diag[live] = _diagonalize(A[live])
        return cls(A, mu, V, Vinv, diag, zero)

    def __getitem__(self, i) -> "_ConstantFlow":
        # copies, so that a cached single-parameter flow does not pin the
        # stack; eigendecompositions are kept only where they are used
        diag = self.diag[i]
        eig = (None,) * 3
        if diag.any():
            eig = (self.mu[i].copy(), self.V[i].copy(), self.Vinv[i].copy())
        return _ConstantFlow(self.A[i].copy(), *eig, diag, self.zero[i])

    def apply(self, dx: float, Y: np.ndarray) -> np.ndarray:
        """``exp(A dx) Y`` for vectors or matrices ``Y`` stacked like ``A``."""
        if self.kind == "zero" or dx == 0.0:
            return np.array(Y, copy=True)
        vec = Y.ndim < self.A.ndim
        if vec:
            Y = Y[..., None]
        if self.kind == "diag":
            out = self.V @ (np.exp(self.mu * dx)[..., None] * (self.Vinv @ Y))
        elif self.kind == "expm":
            out = expm(self.A * dx) @ Y
        else:
            out = np.array(Y, copy=True)
            for part in (self.diag, ~(self.diag | self.zero)):
                if part.any():
                    out[part] = self[part].apply(dx, Y[part])
        return out[..., 0] if vec else out

    def apply_many(self, dxs: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Stacked flow values of one matrix at an array of offsets."""
        if self.kind == "zero":
            return np.broadcast_to(Y, (len(dxs),) + Y.shape).copy()
        if self.kind == "diag":
            core = self.Vinv @ Y
            ex = np.exp(np.outer(dxs, self.mu))  # (m, n)
            if core.ndim == 1:
                return np.einsum("ij,mj,j->mi", self.V, ex, core)
            return np.einsum("ij,mj,jk->mik", self.V, ex, core)
        return np.stack([self.apply(float(dx), Y) for dx in dxs])


@dataclass
class _Piece:
    """One smooth stretch, stacked over spectral parameters or for a single one.

    ``piece[i]`` is the stretch of parameter ``i`` alone.
    """

    lo: float
    hi: float
    flow: _ConstantFlow | None = None     # constant-coefficient fast path ...
    x_ref: float = 0.0
    y_ref: np.ndarray | None = None
    dense: object | None = None           # ... or a dense ODE interpolant (a list when stacked)
    shape: tuple[int, ...] = ()

    def __getitem__(self, i) -> "_Piece":
        if self.flow is not None:
            return _Piece(self.lo, self.hi, flow=self.flow[i], x_ref=self.x_ref, y_ref=self.y_ref[i].copy())
        return _Piece(self.lo, self.hi, dense=self.dense[i], shape=self.shape)

    def eval(self, x: float) -> np.ndarray:
        if self.flow is not None:
            return self.flow.apply(x - self.x_ref, self.y_ref)
        if isinstance(self.dense, list):
            return np.stack([self[i].eval(x) for i in range(len(self.dense))])
        return np.asarray(self.dense(x)).reshape(self.shape)

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        if self.flow is not None:
            return self.flow.apply_many(xs - self.x_ref, self.y_ref)
        vals = np.asarray(self.dense(xs))  # (flat_dim, m)
        return np.moveaxis(vals, -1, 0).reshape((len(xs),) + self.shape)


def _coefficient_matrix(sys: SystemSpec, lam) -> Callable[[float], np.ndarray]:
    """``x -> J^-1 (lam w(x) - q(x))``; ``lam`` of shape ``(m, 1, 1)`` stacks it."""
    Jinv = sys.J_inv

    def A(x: float) -> np.ndarray:
        return Jinv @ (lam * sys.w.density_at(x) - sys.q.density_at(x))

    return A


def _stretch_is_constant(sys: SystemSpec, lo: float, hi: float) -> bool:
    for meas in (sys.q, sys.w):
        for seg in meas.segments:
            if seg.interval[0] < hi and seg.interval[1] > lo and seg.degree != 0:
                return False
    return True


def _solve_stretch(
    sys: SystemSpec,
    lams: np.ndarray,
    lo: float,
    hi: float,
    x_from: float,
    Y_from: np.ndarray,
    f: Callable[[float], np.ndarray] | None,
    flows: list[_ConstantFlow],
) -> tuple[_Piece, np.ndarray]:
    """Propagate the stack ``Y_from`` over ``[lo, hi]`` from one edge (``x_from``) to the other.

    Constant stretches flow all parameters at once, reusing a flow from
    ``flows`` when an earlier stretch had the same coefficients (an atom or
    the anchor split the density); any other stretch takes one adaptive
    integration per parameter, so each keeps its own steps.
    """
    x_to = hi if x_from == lo else lo
    if f is None and _stretch_is_constant(sys, lo, hi):
        A = _coefficient_matrix(sys, lams[:, None, None])(0.5 * (lo + hi))
        flow = next((known for known in flows if np.array_equal(known.A, A)), None)
        if flow is None:
            flow = _ConstantFlow.of(A)
            flows.append(flow)
        piece = _Piece(lo=lo, hi=hi, flow=flow, x_ref=x_from, y_ref=Y_from)
        return piece, flow.apply(x_to - x_from, Y_from)

    Jinv = sys.J_inv
    shape = Y_from.shape[1:]
    dense, ends = [], []
    for lam, Y in zip(lams, Y_from):
        Afun = _coefficient_matrix(sys, lam)

        def rhs(x: float, y: np.ndarray) -> np.ndarray:
            out = Afun(x) @ y.reshape(shape)
            if f is not None:
                out = out + Jinv @ (sys.w.density_at(x) @ np.asarray(f(x), dtype=complex))
            return out.reshape(-1)

        sol = _scipy_solve_ivp(
            rhs,
            (x_from, x_to),
            Y.reshape(-1),
            method="DOP853",
            rtol=sys.tols.ode_rtol,
            atol=sys.tols.ode_atol,
            dense_output=True,
        )
        if not sol.success:
            raise AccuracyError(f"integrator failed on [{lo}, {hi}]: {sol.message}")
        dense.append(sol.sol)
        ends.append(sol.y[:, -1].reshape(shape))
    return _Piece(lo=lo, hi=hi, dense=dense, shape=shape), np.stack(ends)


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
    cond = np.linalg.cond(target)
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

    def _index_of(self, x: float) -> int | None:
        i = bisect.bisect_left(self.points, x)
        if i < len(self.points) and self.points[i] == x:
            return i
        return None

    def _piece_at(self, x: float) -> _Piece:
        i = bisect.bisect_left(self.points, x)
        return self.pieces[max(i - 1, 0)]

    def _check(self, x: float):
        if not (self.lo <= x <= self.hi):
            raise ValueError(f"{x} outside [{self.lo}, {self.hi}]")

    def left(self, x: float) -> np.ndarray:
        self._check(x)
        i = self._index_of(x)
        return self.left_values[i] if i is not None else self._piece_at(x).eval(x)

    def right(self, x: float) -> np.ndarray:
        self._check(x)
        i = self._index_of(x)
        return self.right_values[i] if i is not None else self._piece_at(x).eval(x)

    def balanced(self, x: float) -> np.ndarray:
        self._check(x)
        i = self._index_of(x)
        if i is not None:
            return 0.5 * (self.left_values[i] + self.right_values[i])
        return self._piece_at(x).eval(x)

    __call__ = balanced

    def balanced_many(self, xs: np.ndarray) -> np.ndarray:
        """Balanced values of one spectral parameter at an ascending array of points.

        Points hitting a breakpoint take the stored one-sided limits;
        everything else is evaluated piece by piece in one batch each.
        """
        xs = np.asarray(xs, dtype=float)
        points = np.asarray(self.points)
        out = None
        idx = np.searchsorted(points, xs)
        exact = points[np.minimum(idx, len(points) - 1)] == xs
        piece_of = np.clip(idx - 1, 0, len(self.pieces) - 1)
        for p in np.unique(piece_of[~exact]):
            mask = (~exact) & (piece_of == p)
            vals = self.pieces[p].eval_many(xs[mask])
            if out is None:
                out = np.zeros((len(xs),) + vals.shape[1:], dtype=complex)
            out[mask] = vals
        if exact.any():
            for i in np.nonzero(exact)[0]:
                v = self.balanced(float(xs[i]))
                if out is None:
                    out = np.zeros((len(xs),) + v.shape, dtype=complex)
                out[i] = v
        return out


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
    flows: list[_ConstantFlow] = []

    cur = Y0
    for i in range(i0, npts - 1):
        if i > i0:
            left_vals[i] = cur
            if sys.is_atom(points[i]):
                cur = _transfer(sys, lams, points[i], cur, f, +1)
            right_vals[i] = cur
        pieces[i], cur = _solve_stretch(sys, lams, points[i], points[i + 1], points[i], cur, f, flows)
    if i0 < npts - 1:
        left_vals[-1] = right_vals[-1] = cur

    cur = Y0
    for i in range(i0, 0, -1):
        if i < i0:
            right_vals[i] = cur
            if sys.is_atom(points[i]):
                cur = _transfer(sys, lams, points[i], cur, f, -1)
            left_vals[i] = cur
        pieces[i - 1], cur = _solve_stretch(sys, lams, points[i - 1], points[i], points[i], cur, f, flows)
    if i0 > 0:
        left_vals[0] = right_vals[0] = cur

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
    axis over them; ``row[i]`` is the row of parameter ``i`` alone.
    """

    def __init__(self, sys: SystemSpec, fundamentals: Sequence[PiecewiseSolution]):
        self.sys = sys
        self.fundamentals = list(fundamentals)
        self.lam = self.fundamentals[0].lam if self.fundamentals else 0j
        self.n = sys.dim

    def __getitem__(self, i) -> "SolutionRow":
        return SolutionRow(self.sys, [fund[i] for fund in self.fundamentals])

    @property
    def blocks(self) -> int:
        return len(self.fundamentals)

    def _block(self, fund: PiecewiseSolution, x: float, side: str) -> np.ndarray:
        lo, hi = fund.lo, fund.hi
        if not (x <= lo or x >= hi):  # interior (a NaN lands here and is rejected)
            if side == "left":
                return fund.left(x)
            if side == "right":
                return fund.right(x)
            return fund.balanced(x)
        zero = np.zeros(np.shape(self.lam) + (self.n, self.n), dtype=complex)
        if x == lo:
            left, right = zero, fund.right(lo)
        elif x == hi:
            left, right = fund.left(hi), zero
        else:
            return zero
        if side == "left":
            return left
        if side == "right":
            return right
        return 0.5 * (left + right)

    def value(self, x: float, side: str = "balanced") -> np.ndarray:
        if side not in ("left", "right", "balanced"):
            raise ValueError(f"unknown side {side!r}")
        return np.concatenate([self._block(f, x, side) for f in self.fundamentals], axis=-1)

    def left(self, x: float) -> np.ndarray:
        return self.value(x, "left")

    def right(self, x: float) -> np.ndarray:
        return self.value(x, "right")

    def balanced(self, x: float) -> np.ndarray:
        return self.value(x, "balanced")

    __call__ = balanced

    def balanced_many(self, xs: np.ndarray) -> np.ndarray:
        """Balanced row values of one spectral parameter at an ascending array of points."""
        xs = np.asarray(xs, dtype=float)
        out = np.zeros((len(xs), self.n, self.n * self.blocks), dtype=complex)
        for j, fund in enumerate(self.fundamentals):
            lo, hi = fund.lo, fund.hi
            inside = (xs > lo) & (xs < hi)
            edge = (xs == lo) | (xs == hi)
            cols = slice(j * self.n, (j + 1) * self.n)
            if inside.any():
                out[inside, :, cols] = fund.balanced_many(xs[inside])
            for i in np.nonzero(edge)[0]:
                out[i, :, cols] = self._block(fund, float(xs[i]), "balanced")
        return out


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
    at ``lam``.  The row is evaluated once per batch of points, ``f`` point by
    point; ``f`` must evaluate to balanced values at atoms of the measure.
    """

    def integrand(xs: np.ndarray, dms: np.ndarray) -> np.ndarray:
        paired = np.einsum("mji,mjk->mik", np.conj(row.balanced_many(xs)), dms)
        fs = np.stack([np.asarray(f(float(x)), dtype=complex) for x in xs])
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
    U = fundamental_matrix(sys, j, lam, anchor=anchor, sing=sing)
    Uc = fundamental_matrix(sys, j, np.conj(lam), anchor=anchor, sing=sing)
    lo, hi = U.lo, U.hi
    if isinstance(grid, int):
        xs = np.linspace(lo, hi, grid)
    else:
        xs = np.asarray(list(grid), dtype=float)
    J = sys.J
    Jinv = sys.J_inv
    worst = 0.0
    for x in xs:
        for side in ("left", "right"):
            u = getattr(U, side)(float(x))
            uc = getattr(Uc, side)(float(x))
            r1 = np.max(np.abs(uc.conj().T @ J @ u - J))
            r2 = np.max(np.abs(u @ Jinv @ uc.conj().T - Jinv))
            worst = max(worst, float(r1), float(r2))
    return worst
