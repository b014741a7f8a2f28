"""Resolvent evaluation, spectral-measure extraction and the eigenvalue scan.

The resolvent of the self-adjoint realization acts through the kernel built
from the solution row and the Weyl matrix,

    ``(R_lam f)(x) = row(x, lam) @ [ M(lam) Ff + (1/2) Jb^-1 int sgn(x - .) row(., conj lam)^* w f ]``,

with balanced values at atoms.  Variation of constants gives the same
function from one solve of the driven equation per block: with ``u_j`` the
solution of ``J u' + q u = lam w u + w f`` on block ``j`` that vanishes at the
block's anchor, ``J Y^-1 u_j`` is the running transform of block ``j`` (``Y``
its fundamental matrix), so

    ``(R_lam f)(x) = row(x, lam) @ c + sum_j u_j(x)``

for a constant ``c`` read off the block edges, and the jumps at atoms come
from the drive transfers of the solves.  The spectral measure is recovered
two independent ways: a boundary-determinant eigenvalue scan with
Gram-orthonormalized eigenvectors (regular problems), and Stieltjes inversion
of the Weyl matrix with shrinking imaginary offsets.  The model builder
cross-validates one against the other.

Both ways work on stacks of spectral parameters.  The scan refines its roots
from stacked assemblies at Chebyshev nodes of the sign-change brackets, and
every set of Weyl samples (the offsets of an atom weight, the nodes of a
round of quadrature bisections, a density grid) is one
:func:`~blockweyl.weyl.m_function_many` call.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize_scalar

from . import quadrature
from .assembly import assemble_blocks, norm_zero_space
from .engine import Engine
from .errors import AccuracyError, StructuralError, TheoryViolationError
from .propagation import SolutionRow, _atom_drive, solve_ivp
from .system import BoundaryConditions, SystemSpec
from .weyl import m_function, m_function_many

DEFAULT_EPS_SCHEDULE = (1e-2, 1e-3, 1e-4)

#: Chebyshev-Lobatto nodes per sign-change bracket of the scan determinant;
#: odd, so that the middle node is the midpoint a halved bracket reuses
CHEB_NODES = 13
#: an interpolant is trusted when its trailing coefficients are below this
#: times the Hadamard bound of the sampled matrices (their rounding scale)
CHEB_TOL = 1e-13
_CHEB_T = np.sin(np.pi * np.arange(1 - CHEB_NODES, CHEB_NODES, 2) / (2 * (CHEB_NODES - 1)))
_CHEB_FIT = np.linalg.inv(np.polynomial.chebyshev.chebvander(_CHEB_T, CHEB_NODES - 1))


# ---------------------------------------------------------------------------
# the resolvent


class ResolventFunction:
    """Callable balanced representative of ``R_lam f`` (with one-sided limits),
    read through :meth:`many`; a single point is a batch of one.

    Block ``j`` of ``coeffs`` is ``(M Ff)_j - (z_lo + z_hi)/2 + J^-1 (A_lo - A_hi)/2``,
    where ``z = Y^-1 u_j`` at the block's one-sided limits at its edges and
    ``A = (1/2) J Y^-1 J^-1 Dw f`` there is the share of a ``w`` atom at the
    edge that the block's half value sees (0 without one).  The same
    quantities give the transform, ``(Ff)_j = J (z_hi - z_lo) + A_lo + A_hi``.
    ``drives`` holds the ``u_j`` as a row of one column per block, so the
    drive term is zero off its block and halved at a partition point, like
    the row.
    """

    def __init__(
        self,
        sys: SystemSpec,
        bc: BoundaryConditions,
        lam: complex,
        f: Callable[[float], np.ndarray],
        *,
        engine: Engine | None = None,
    ):
        if lam.imag == 0.0:
            raise StructuralError("the resolvent needs a nonreal spectral parameter")
        self.sys = sys
        self.lam = complex(lam)
        eng = engine or Engine(sys, bc)
        self.engine = eng
        self.row = eng.rows([self.lam, self.lam.conjugate()])[0]  # the witness reads the other
        n = sys.dim
        self.drives = SolutionRow(sys, [
            solve_ivp(sys, j, self.lam, x0, np.zeros((n, 1), dtype=complex), f, sing=eng.sing)
            for j, x0 in enumerate(eng.anchors)
        ])
        blocks, offsets = [], []
        for Y, u in zip(self.row.fundamentals, self.drives.fundamentals):
            ends = []
            for x, Yx, ux in ((Y.lo, Y.right_values[0], u.right_values[0]),
                              (Y.hi, Y.left_values[-1], u.left_values[-1])):
                drive = _atom_drive(sys, x, f)
                if drive is None:
                    drive = np.zeros((n, 1))
                z, atom = np.linalg.solve(Yx, np.hstack([ux, sys.J_inv @ drive])).T
                ends.append((z, 0.5 * sys.J @ atom))
            (z_lo, a_lo), (z_hi, a_hi) = ends
            blocks.append(sys.J @ (z_hi - z_lo) + a_lo + a_hi)
            offsets.append(0.5 * (z_lo + z_hi) - 0.5 * sys.J_inv @ (a_lo - a_hi))
        self.weyl = m_function(sys, bc, self.lam, engine=eng)
        self.transform = np.concatenate(blocks)
        self.coeffs = self.weyl.m @ self.transform - np.concatenate(offsets)
        a, b = sys.interval
        pts = {*sys.q.breakpoints(), *sys.w.breakpoints(), *getattr(f, "breakpoints", ()),
               *(getattr(f, "support", None) or ())}
        self.breakpoints = tuple(sorted(p for p in pts if a < p < b))

    def many(self, xs: np.ndarray, side: str = "balanced") -> np.ndarray:
        """Values at an ascending array of points, stacked: ``row @ coeffs`` plus the drive solutions."""
        return self.row.many(xs, side) @ self.coeffs + self.drives.many(xs, side).sum(-1)

    def value(self, x: float, side: str = "balanced") -> np.ndarray:
        return self.many(np.array([x]), side)[0]

    def left(self, x: float) -> np.ndarray:
        return self.value(x, "left")

    def right(self, x: float) -> np.ndarray:
        return self.value(x, "right")

    def balanced(self, x: float) -> np.ndarray:
        return self.value(x, "balanced")

    __call__ = balanced


# ---------------------------------------------------------------------------
# eigenvalue scan (independent oracle for regular problems)


@dataclass
class EigenPoint:
    """One eigenvalue with Gram-orthonormalized coefficient vectors."""

    value: float
    multiplicity: int
    vectors: np.ndarray  # (coeff_dim, multiplicity), columns in ran P

    @property
    def weight(self) -> np.ndarray:
        return self.vectors @ self.vectors.conj().T


def _solution_constraints(sys, bc, s, eng) -> np.ndarray:
    """Constraint rows without the projector, stacked over an array ``s``."""
    asm = assemble_blocks(sys, bc, s, engine=eng, check_rank=False)
    return np.concatenate(
        [asm.jump_defect, asm.q_minus, asm.q_plus, asm.script_a_minus + asm.script_a_plus],
        axis=-2,
    )


def eigen_scan(
    sys: SystemSpec,
    bc: BoundaryConditions,
    lam_min: float,
    lam_max: float,
    *,
    engine: Engine | None = None,
    grid_step: float = 0.05,
    sigma_accept: float = 1e-6,
) -> list[EigenPoint]:
    """Locate real eigenvalues by rank drops of the solution constraints.

    The constraint stack (junction, integrability and boundary rows, without
    the norm-zero row) restricted to the complement of the norm-zero space
    loses rank exactly at eigenvalues.  It is assembled for all grid points
    in one batched pass.  When the restriction is square with real entries, a
    signed determinant brackets roots by its sign changes, and the roots of
    all brackets are refined together by Chebyshev interpolation
    (:func:`_bracket_roots`, one stacked assembly per round).  Local minima of
    the smallest restricted singular value that no bracket explains are
    refined by bounded minimization.  Every candidate is accepted when that
    singular value collapses to the noise floor.
    """
    eng = engine or Engine(sys, bc)
    basis_p = _range_basis(norm_zero_space(sys, engine=eng)[1])
    if basis_p.shape[1] == 0:
        return []

    def reduced(s) -> np.ndarray:
        return _solution_constraints(sys, bc, s, eng) @ basis_p

    def smin(s: float) -> float:
        sv = np.linalg.svd(reduced(s), compute_uv=False)
        return float(sv[-1]) if sv.size else 0.0

    npts = max(9, int(np.ceil((lam_max - lam_min) / grid_step)) + 1)
    grid = np.linspace(lam_min, lam_max, npts)
    samples = reduced(grid)  # (grid points, rows, r)
    svals = np.linalg.svd(samples, compute_uv=False)[:, -1]
    scale = float(np.median(svals)) or 1.0

    candidates: list[float] = []
    r = basis_p.shape[1]
    # rows that vanish identically over the grid are structural zeros; when the
    # surviving rows form a square real matrix a signed determinant provides
    # sign-change brackets
    row_peak = np.max(np.abs(samples), axis=(0, 2))
    live = row_peak > 1e-12 * max(1.0, float(np.max(row_peak)))
    use_det = int(np.sum(live)) == r
    if use_det:
        dets = np.linalg.det(samples[:, live])
        if np.max(np.abs(dets.imag)) <= 1e-9 * max(float(np.max(np.abs(dets.real))), 1e-300):
            dre = dets.real
            brackets = []
            for i in range(len(grid)):
                if dre[i] == 0.0:
                    candidates.append(float(grid[i]))
                elif i + 1 < len(grid) and dre[i] * dre[i + 1] < 0:
                    brackets.append((float(grid[i]), float(grid[i + 1]), dre[i], dre[i + 1]))

            def det_many(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
                mats = reduced(s)[:, live]
                return np.linalg.det(mats).real, np.prod(np.linalg.norm(mats, axis=-1), axis=-1)

            candidates += _bracket_roots(det_many, brackets)
        else:
            use_det = False
    # singular-value dips catch everything else (and even-order det roots)
    for i in range(1, len(grid) - 1):
        if svals[i] <= svals[i - 1] and svals[i] <= svals[i + 1] and svals[i] < 0.5 * scale:
            if use_det and any(grid[i - 1] <= cand <= grid[i + 1] for cand in candidates):
                continue
            res = minimize_scalar(
                smin, bounds=(float(grid[i - 1]), float(grid[i + 1])),
                method="bounded", options={"xatol": 1e-12},
            )
            candidates.append(float(res.x))
    for edge in (0, len(grid) - 1):
        if svals[edge] < sigma_accept * scale:
            candidates.append(float(grid[edge]))

    points: list[EigenPoint] = []
    for s in sorted(candidates):
        if points and abs(s - points[-1].value) < 1e-7 * (1.0 + abs(s)):
            continue
        _, sv, vh = np.linalg.svd(reduced(s))
        top = sv[0] if sv.size else 1.0
        if sv.size and sv[-1] > sigma_accept * max(top, scale):
            continue
        vecs = _gram_normalized_kernel(s, sv, vh, basis_p, eng)
        if vecs.shape[1]:
            points.append(EigenPoint(value=s, multiplicity=vecs.shape[1], vectors=vecs))
    return points


def _bracket_roots(det_many, brackets) -> list[float]:
    """Roots of a real determinant in its sign-change brackets ``(a, b, f(a), f(b))``.

    Each bracket is sampled at the interior Chebyshev-Lobatto nodes, all
    brackets in one call of ``det_many`` (determinants and Hadamard bounds of
    the sampled matrices).  The interpolant keeps the end values, so it
    changes sign and has a real root; it is trusted when its two trailing
    coefficients are at roundoff, below :data:`CHEB_TOL` times the largest
    Hadamard bound (J. P. Boyd, SIAM J. Numer. Anal. 40 (2002)), and its real
    roots in the bracket are returned.  An untrusted bracket is halved at its
    middle node, keeping the half with the sign change, and resampled with the
    others in the next round.  Widths follow ``brentq(xtol=1e-13, rtol=1e-15)``:
    a bracket that narrows to ``1e-13 + 1e-15 |s|`` returns its midpoint, and
    a root within half that of an end returns the end.
    """
    def tol(s):
        return 1e-13 + 1e-15 * np.abs(s)

    roots: list[float] = []
    while brackets:
        a, b, fa, fb = (np.array(col) for col in zip(*brackets))
        narrow = b - a <= tol(np.maximum(np.abs(a), np.abs(b)))
        roots += [float(x) for x in 0.5 * (a[narrow] + b[narrow])]
        a, b, fa, fb = a[~narrow], b[~narrow], fa[~narrow], fb[~narrow]
        if not a.size:
            break
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes = mid[:, None] + half[:, None] * _CHEB_T[1:-1]
        inner, hadamard = det_many(nodes.ravel())
        values = np.column_stack([fa, inner.reshape(nodes.shape), fb])
        coeffs = values @ _CHEB_FIT.T
        floors = CHEB_TOL * np.max(hadamard.reshape(nodes.shape), axis=1)
        brackets = []
        for k, c in enumerate(coeffs):
            ts = np.array([])
            if np.max(np.abs(c[-2:])) <= floors[k]:
                ts = np.polynomial.chebyshev.chebroots(c)
                ts = np.clip(ts.real[(ts.imag == 0) & (np.abs(ts.real) <= 1.0 + 1e-12)], -1.0, 1.0)
            for x in mid[k] + half[k] * ts:
                ends = [end for end in (a[k], b[k]) if abs(x - end) <= 0.5 * tol(end)]
                roots.append(float(ends[0] if ends else x))
            if ts.size:
                continue
            fm = values[k, CHEB_NODES // 2]  # the value at the midpoint
            if fm == 0.0:
                roots.append(float(mid[k]))
            elif fa[k] * fm < 0:
                brackets.append((a[k], mid[k], fa[k], fm))
            else:
                brackets.append((mid[k], b[k], fm, fb[k]))
    return roots


def _range_basis(projector: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(projector)
    keep = vals > 0.5
    return vecs[:, keep]


def _gram_normalized_kernel(s, sv, vh, basis_p, eng) -> np.ndarray:
    """Kernel vectors of the reduced matrix at ``s``, from its full SVD
    ``(sv, vh)``, made orthonormal in the Gram matrix of the row at ``s``."""
    top = sv[0] if sv.size else 1.0
    null_dim = int(np.sum(sv <= 1e-6 * max(top, 1.0))) + (vh.shape[0] - sv.size)
    if null_dim == 0:
        return np.zeros((basis_p.shape[0], 0), dtype=complex)
    K = basis_p @ vh[-null_dim:].conj().T  # coefficient vectors in ran P
    gram = eng.gram(float(s))
    C = K.conj().T @ gram @ K
    C = 0.5 * (C + C.conj().T)
    mu, V = np.linalg.eigh(C)
    keep = mu > 1e-10 * max(1.0, float(np.max(np.abs(mu))))
    cols = []
    for i in range(len(mu)):
        if not keep[i]:
            continue
        vec = K @ V[:, i] / np.sqrt(mu[i])
        # deterministic phase: largest-magnitude entry real positive
        lead = vec[int(np.argmax(np.abs(vec)))]
        if abs(lead) > 0:
            vec = vec * (np.conj(lead) / abs(lead))
        cols.append(vec)
    if not cols:
        return np.zeros((basis_p.shape[0], 0), dtype=complex)
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# Stieltjes inversion and atom limits


def _imag_m(sys, bc, s, eps, eng) -> np.ndarray:
    """``Im M(s + i eps)`` stacked over an array ``s``, from one batch of Weyl samples."""
    ms = np.stack([w.m for w in m_function_many(sys, bc, np.asarray(s) + 1j * eps, engine=eng)])
    return (ms - np.swapaxes(ms.conj(), -1, -2)) / 2j


def _richardson(values: list[np.ndarray], ratios: list[float]):
    """Eliminate the leading linear-in-eps term pairwise; return estimate and spread."""
    if len(values) == 1:
        return values[0], float("inf")
    extrap = [
        (r * b - a) / (r - 1.0)
        for a, b, r in zip(values[:-1], values[1:], ratios)
    ]
    if len(extrap) == 1:
        spread = float(np.max(np.abs(values[-1] - extrap[0])))
        return extrap[0], spread
    spread = float(np.max(np.abs(extrap[-1] - extrap[-2])))
    return extrap[-1], spread


def atom_weight(
    sys: SystemSpec,
    bc: BoundaryConditions,
    s: float,
    eps_schedule: Sequence[float] = DEFAULT_EPS_SCHEDULE,
    *,
    engine: Engine | None = None,
    psd_clip: float = 1e-8,
) -> tuple[np.ndarray, dict]:
    """Point mass of the spectral measure at ``s`` from the Weyl-matrix limit.

    Extrapolates ``-i eps M(s + i eps)`` over the shrinking offsets, then
    symmetrizes and clips eigenvalues in ``[-psd_clip, 0)`` to zero.  Larger
    negativity raises :class:`TheoryViolationError`.  The ``converged`` flag
    holds when the extrapolation spread is at most ``1e-3`` times the largest
    entry of the estimate (``1e-8`` absolute for a vanishing weight).  The
    offsets are sampled in one :func:`~blockweyl.weyl.m_function_many` call.
    """
    eng = engine or Engine(sys, bc)
    eps = sorted((float(e) for e in eps_schedule), reverse=True)
    if not eps:
        raise ValueError("empty eps schedule")
    samples = m_function_many(sys, bc, [complex(s, e) for e in eps], engine=eng)
    vals = [-1j * e * w.m for e, w in zip(eps, samples)]
    ratios = [a / b for a, b in zip(eps[:-1], eps[1:])]
    est, spread = _richardson(vals, ratios)
    # the error bar against the weight's own size, absolute below 1e-5
    converged = spread <= 1e-3 * max(float(np.max(np.abs(est))), 1e-5)

    W = 0.5 * (est + est.conj().T)
    mu, V = np.linalg.eigh(W)
    scale = max(1.0, float(np.max(np.abs(mu))))
    # negativity below the extrapolation error bar is numerical noise
    allowance = max(psd_clip * scale, 10.0 * spread + 1e-12)
    if np.min(mu) < -allowance:
        raise TheoryViolationError(
            f"atom weight at s={s} has eigenvalue {np.min(mu):.3e}; "
            "the Weyl matrix is not Herglotz here"
        )
    mu = np.clip(mu, 0.0, None)
    W = (V * mu) @ V.conj().T
    diag = {"spread": spread, "converged": bool(converged), "eps": tuple(eps)}
    return W, diag


def stieltjes_inversion(
    sys: SystemSpec,
    bc: BoundaryConditions,
    c: float,
    d: float,
    eps_schedule: Sequence[float] = DEFAULT_EPS_SCHEDULE,
    *,
    engine: Engine | None = None,
    refine_at: Sequence[float] | None = None,
    quad_rel: float = 1e-8,
) -> tuple[np.ndarray, float]:
    """Spectral mass of ``[c, d)`` via ``(1/pi) int_c^d Im M(s + i eps) ds``.

    The shrinking-offset estimates are Richardson-extrapolated; the returned
    scalar is the extrapolation spread (an error bar).  ``refine_at`` seeds
    quadrature breakpoints at spectral peaks; when omitted and the problem is
    regular the eigenvalue scan supplies them (and guards against ``c`` or
    ``d`` sitting on an atom of the measure).
    """
    if not c < d:
        raise StructuralError("need c < d")
    eng = engine or Engine(sys, bc)
    eps = sorted((float(e) for e in eps_schedule), reverse=True)
    if not eps:
        raise ValueError("empty eps schedule")
    if refine_at is None and sys.endpoint_a.regular and sys.endpoint_b.regular:
        margin = 2.0 * eps[0]
        pts = eigen_scan(sys, bc, c - margin, d + margin, engine=eng)
        refine_at = [p.value for p in pts]
        guard = 5.0 * eps[-1]
        for p in refine_at:
            if abs(p - c) < guard or abs(p - d) < guard:
                raise StructuralError(
                    f"interval endpoint within {guard} of the spectral atom at {p}"
                )
    refine_at = refine_at or []

    estimates = []
    for e in eps:
        breaks: list[float] = []
        for p in refine_at:
            for off in (-10 * e, -2 * e, 0.0, 2 * e, 10 * e):
                if c < p + off < d:
                    breaks.append(p + off)
        val, _ = quadrature.integrate(
            lambda s: _imag_m(sys, bc, s, e, eng),
            c, d, breakpoints=breaks, rel_tol=quad_rel, abs_tol=1e-12, vectorized=True,
        )
        estimates.append(val / np.pi)
    ratios = [a / b for a, b in zip(eps[:-1], eps[1:])]
    est, spread = _richardson(estimates, ratios)
    est = 0.5 * (est + est.conj().T)
    return est, spread


# ---------------------------------------------------------------------------
# the spectral-measure model


@dataclass
class SpectralAtom:
    s: float
    weight: np.ndarray
    multiplicity: int
    vectors: np.ndarray | None = None
    inversion_gap: float | None = None


@dataclass
class SpectralMeasureModel:
    """Discrete spectral data plus sampled density and Nevanlinna constants.

    Atom weights satisfy ``P W P = W`` (they live on the complement of the
    norm-zero space).  The induced distribution function is taken
    left-continuous, so intervals ``[c, d)`` add exactly the atoms with
    ``c <= s < d``; this is a convention of the artifact.
    """

    atoms: list[SpectralAtom] = field(default_factory=list)
    density_grid: np.ndarray | None = None
    density_values: np.ndarray | None = None
    const_a: np.ndarray | None = None
    const_b: np.ndarray | None = None
    scan_range: tuple[float, float] | None = None
    verified: bool = True
    notes: list[str] = field(default_factory=list)

    @property
    def support(self) -> list[float]:
        return [a.s for a in self.atoms]

    def mass(self, c: float, d: float) -> np.ndarray:
        """Atom mass of ``[c, d)``."""
        dim = self.atoms[0].weight.shape[0] if self.atoms else 0
        out = np.zeros((dim, dim), dtype=complex)
        for a in self.atoms:
            if c <= a.s < d:
                out = out + a.weight
        return out


def spectral_measure_model(
    sys: SystemSpec,
    bc: BoundaryConditions,
    lam_range: tuple[float, float],
    *,
    engine: Engine | None = None,
    eps_schedule: Sequence[float] = DEFAULT_EPS_SCHEDULE,
    cross_tol: float = 1e-4,
    density_samples: int = 0,
) -> SpectralMeasureModel:
    """Build the spectral measure over ``lam_range``.

    Regular problems take the eigenvalue-scan path and cross-validate every
    atom against the Weyl-matrix limit (hard error beyond ``cross_tol``); the
    scan's Gram-orthonormalized weights are stored.  Problems with singular
    endpoints fall back to inversion-only atoms located at peaks of the
    sampled density and are marked accordingly; a peak whose weight did not
    converge raises :class:`AccuracyError`.
    """
    eng = engine or Engine(sys, bc)
    lo, hi = lam_range
    model = SpectralMeasureModel(scan_range=(float(lo), float(hi)))
    if hi <= lo:
        return model

    regular = sys.endpoint_a.regular and sys.endpoint_b.regular
    if regular:
        points = eigen_scan(sys, bc, lo, hi, engine=eng)
        for p in points:
            inv_w, diag = atom_weight(sys, bc, p.value, eps_schedule, engine=eng)
            oracle_w = p.weight
            gap = float(np.max(np.abs(inv_w - oracle_w)))
            if gap > cross_tol * max(1.0, float(np.max(np.abs(oracle_w)))):
                raise TheoryViolationError(
                    f"inversion and eigenfunction weights disagree at s={p.value} "
                    f"(gap {gap:.3e}); model unverified"
                )
            model.atoms.append(
                SpectralAtom(
                    s=p.value,
                    weight=oracle_w,
                    multiplicity=p.multiplicity,
                    vectors=p.vectors,
                    inversion_gap=gap,
                )
            )
    else:
        eps0 = min(eps_schedule)
        grid = np.linspace(lo, hi, max(density_samples, 801))
        trace = np.trace(_imag_m(sys, bc, grid, eps0, eng), axis1=-2, axis2=-1).real
        floor = np.median(trace)
        for i in range(1, len(grid) - 1):
            if trace[i] > trace[i - 1] and trace[i] > trace[i + 1] and trace[i] > 100 * floor:
                W, diag = atom_weight(sys, bc, float(grid[i]), eps_schedule, engine=eng)
                if not diag["converged"]:
                    raise AccuracyError(
                        f"atom weight at the density peak s={grid[i]} did not converge "
                        f"(extrapolation spread {diag['spread']:.3e})",
                        achieved=diag["spread"],
                    )
                model.atoms.append(
                    SpectralAtom(s=float(grid[i]), weight=W, multiplicity=int(np.linalg.matrix_rank(W)))
                )
        model.verified = False
        model.notes.append("inversion-only path; atoms located from density peaks")

    if density_samples:
        eps0 = min(eps_schedule)
        grid = np.linspace(lo, hi, density_samples)
        vals = _imag_m(sys, bc, grid, eps0, eng) / np.pi
        model.density_grid = grid
        model.density_values = vals

    # Nevanlinna constants fitted from the sampled representation at lam = i
    sample = m_function(sys, bc, 1j, engine=eng, with_witness=False)
    correction = np.zeros_like(sample.m)
    for a in model.atoms:
        t = a.s
        correction = correction + (1.0 / (t - 1j) - t / (t * t + 1.0)) * a.weight
    A = 0.5 * ((sample.m - correction) + (sample.m - correction).conj().T)
    B = (sample.m - sample.m.conj().T) / 2j
    for a in model.atoms:
        B = B - a.weight / (a.s ** 2 + 1.0)
    mu, V = np.linalg.eigh(0.5 * (B + B.conj().T))
    B = (V * np.clip(mu, 0.0, None)) @ V.conj().T
    model.const_a = A
    model.const_b = B
    model.notes.append("constants fitted over the scanned range only")
    return model
