"""Resolvent evaluation, spectral-measure extraction and the eigenvalue scan.

The resolvent of the self-adjoint realization acts through the kernel built
from the solution row and the Weyl matrix,

    ``(R_lam f)(x) = row(x, lam) @ [ M(lam) Ff + (1/2) Jb^-1 (int sgn(x-.)) ]
                     + (1/4)(row^+ - row^-)(x, lam) Jb^-1 row(x, conj lam)^* Dw(x) f(x)``,

with the final term active only at atoms of ``w``.  The spectral measure is
recovered two independent ways: a boundary-determinant eigenvalue scan with
Gram-orthonormalized eigenvectors (regular problems), and Stieltjes inversion
of the Weyl matrix with shrinking imaginary offsets.  The model builder
cross-validates one against the other.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from . import quadrature
from .assembly import assemble_blocks, norm_zero_space
from .engine import Engine
from .errors import StructuralError, TheoryViolationError
from .measures import IntervalSpec, integrate_bv
from .propagation import row_integrand
from .system import BoundaryConditions, SystemSpec
from .weyl import m_function

DEFAULT_EPS_SCHEDULE = (1e-2, 1e-3, 1e-4)


# ---------------------------------------------------------------------------
# cumulative transforms and the resolvent


class PartialTransform:
    """Prefix integrals ``int_[a,x) row(., conj lam)^* w f`` with cheap queries."""

    def __init__(self, sys: SystemSpec, f: Callable[[float], np.ndarray], lam: complex, engine: Engine):
        self.sys = sys
        self.row_c = engine.row(np.conj(lam))
        self.width = engine.coeff_dim
        self._row_f = row_integrand(self.row_c, f)
        a, b = sys.interval
        pts = {a, b}
        pts.update(sys.atom_positions())
        for meas in (sys.q, sys.w):
            pts.update(p for p in meas.breakpoints() if a < p < b)
        pts.update(p for p in getattr(f, "breakpoints", ()) if a < p < b)
        supp = getattr(f, "support", None)
        if supp is not None:
            pts.update(p for p in supp if a < p < b)
        self.edges = sorted(pts)
        # prefix[i] integrates over [edges[0], edges[i])
        self.prefix = [np.zeros(self.width, dtype=complex)]
        for lo, hi in zip(self.edges[:-1], self.edges[1:]):
            self.prefix.append(self.prefix[-1] + self._upto(lo, hi))

    def _upto(self, lo: float, hi: float) -> np.ndarray:
        """Integral over ``[lo, hi)``."""
        iv = IntervalSpec(lo, hi, include_upper=False)
        return integrate_bv(self._row_f, self.sys.w, iv, tols=self.sys.tols)

    def atom_term(self, x: float) -> np.ndarray:
        dw = self.sys.w.atom_at(x)
        if not np.any(dw):
            return np.zeros(self.width, dtype=complex)
        return self._row_f(np.array([x]), dw[None])[0]

    def below(self, x: float) -> np.ndarray:
        """Integral over ``[a, x)``; an atom exactly at ``x`` is excluded."""
        i = bisect.bisect_left(self.edges, x)
        if i == 0:
            return np.zeros(self.width, dtype=complex)
        return self.prefix[i - 1] + self._upto(self.edges[i - 1], x)

    @property
    def total(self) -> np.ndarray:
        return self.prefix[-1].copy()


class ResolventFunction:
    """Callable balanced representative of ``R_lam f`` (with one-sided limits)."""

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
        self.row = eng.row(self.lam)
        self.partial = PartialTransform(sys, f, self.lam, eng)
        sample = m_function(sys, bc, self.lam, engine=eng)
        self.weyl = sample
        self.transform = self.partial.total
        self.core = sample.m @ self.transform
        self.Jinv = eng.J_blocks_inv
        self.breakpoints = tuple(self.partial.edges[1:-1])
        self.support = None  # spans the whole interval

    def _pieces(self, x: float):
        lt = self.partial.below(x)
        atom = self.partial.atom_term(x)
        gt = self.partial.total - lt - atom
        return lt, gt, atom

    def balanced(self, x: float) -> np.ndarray:
        lt, gt, atom = self._pieces(x)
        mid = self.core + 0.5 * self.Jinv @ (lt - gt)
        val = self.row.balanced(x) @ mid
        if np.any(atom):
            val = val + 0.25 * (self.row.right(x) - self.row.left(x)) @ self.Jinv @ atom
        return val

    def left(self, x: float) -> np.ndarray:
        lt, gt, atom = self._pieces(x)
        return self.row.left(x) @ (self.core + 0.5 * self.Jinv @ (lt - gt - atom))

    def right(self, x: float) -> np.ndarray:
        lt, gt, atom = self._pieces(x)
        return self.row.right(x) @ (self.core + 0.5 * self.Jinv @ (lt - gt + atom))

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
    loses rank exactly at eigenvalues.  The smallest restricted singular value
    is scanned on a grid, assembled for all grid points in one batched pass;
    every local minimum is refined by bounded minimization and accepted when
    it collapses to the noise floor.  When the restriction is square with real
    entries a signed determinant provides bracketing sign changes instead;
    both detectors feed the same refinement.
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
        def det_at(s: float) -> complex:
            return complex(np.linalg.det(reduced(s)[live]))

        dets = np.linalg.det(samples[:, live])
        if np.max(np.abs(dets.imag)) <= 1e-9 * max(float(np.max(np.abs(dets.real))), 1e-300):
            dre = dets.real
            for i in range(len(grid)):
                if dre[i] == 0.0:
                    candidates.append(float(grid[i]))
                elif i + 1 < len(grid) and dre[i] * dre[i + 1] < 0:
                    root = brentq(
                        lambda s: det_at(s).real,
                        float(grid[i]), float(grid[i + 1]), xtol=1e-13, rtol=1e-15,
                    )
                    candidates.append(float(root))
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
        mat = reduced(s)
        sv = np.linalg.svd(mat, compute_uv=False)
        top = sv[0] if sv.size else 1.0
        if sv.size and sv[-1] > sigma_accept * max(top, scale):
            continue
        vecs = _gram_normalized_kernel(s, mat, basis_p, eng)
        if vecs.shape[1]:
            points.append(EigenPoint(value=s, multiplicity=vecs.shape[1], vectors=vecs))
    return points


def _range_basis(projector: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(projector)
    keep = vals > 0.5
    return vecs[:, keep]


def _gram_normalized_kernel(s, reduced_mat, basis_p, eng) -> np.ndarray:
    u, sv, vh = np.linalg.svd(reduced_mat)
    top = sv[0] if sv.size else 1.0
    null_dim = int(np.sum(sv <= 1e-6 * max(top, 1.0))) + (reduced_mat.shape[1] - sv.size)
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
    m = m_function(sys, bc, complex(s, eps), engine=eng, with_witness=False).m
    return (m - m.conj().T) / 2j


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
    negativity raises :class:`TheoryViolationError`; a non-shrinking
    extrapolation spread is reported through the ``converged`` flag.
    """
    eng = engine or Engine(sys, bc)
    eps = sorted((float(e) for e in eps_schedule), reverse=True)
    if not eps:
        raise ValueError("empty eps schedule")
    vals = [-1j * e * m_function(sys, bc, complex(s, e), engine=eng, with_witness=False).m
            for e in eps]
    ratios = [a / b for a, b in zip(eps[:-1], eps[1:])]
    est, spread = _richardson(vals, ratios)
    raw_gap = float(np.max(np.abs(vals[-1] - est))) if len(vals) > 1 else float("inf")
    converged = spread <= max(1e-12, 10.0 * raw_gap) or spread < 1e-8

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
            c, d, breakpoints=breaks, rel_tol=quad_rel, abs_tol=1e-12,
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
    sampled density and are marked accordingly.
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
        trace = np.array(
            [np.trace(_imag_m(sys, bc, s, eps0, eng)).real for s in grid]
        )
        floor = np.median(trace)
        for i in range(1, len(grid) - 1):
            if trace[i] > trace[i - 1] and trace[i] > trace[i + 1] and trace[i] > 100 * floor:
                W, diag = atom_weight(sys, bc, float(grid[i]), eps_schedule, engine=eng)
                model.atoms.append(
                    SpectralAtom(s=float(grid[i]), weight=W, multiplicity=int(np.linalg.matrix_rank(W)))
                )
        model.verified = False
        model.notes.append("inversion-only path; atoms located from density peaks")

    if density_samples:
        eps0 = min(eps_schedule)
        grid = np.linspace(lo, hi, density_samples)
        vals = np.stack([_imag_m(sys, bc, float(s), eps0, eng) / np.pi for s in grid])
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
