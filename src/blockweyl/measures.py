"""Matrix-valued measures: piecewise-smooth densities plus finitely many point atoms.

A coefficient here is an ``n x n`` matrix whose entries are measures with an
absolutely continuous part (given per segment by a density evaluator) and a
finite set of point masses.  :func:`integrate_bv` is the one routine that
integrates against such a measure: the transforms and the Gram matrix pass
it their integrands.  It combines adaptive quadrature of the density part,
or a fixed Gauss-Legendre rule on the pieces a caller has sized one for,
with exact atom sums, where the integrand contributes its *balanced* value
(mean of one-sided limits) at every atom.
Only finitely many atoms are supported; the countable case is reported as out
of scope by :func:`validate_measure`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import quadrature
from .errors import StructuralError


@dataclass(frozen=True)
class Tolerances:
    """Numerical knobs used across the package (all configurable)."""

    structural: float = 1e-10      # hermiticity / PSD / self-adjointness checks
    quad_rel: float = 1e-10        # quadrature relative tolerance
    quad_abs: float = 1e-13
    ode_rtol: float = 1e-10        # relative tolerance of the Magnus meshes on smooth stretches
    ode_atol: float = 1e-13
    rank_rel: float = 1e-10        # SVD rank cutoff (relative to sigma_max)
    pinv_rel: float = 1e-12        # pseudoinverse cutoff (relative to sigma_max)
    cond_cap: float = 1e12         # jump-matrix condition number cap
    coeff_zero_rel: float = 1e-12  # polynomial coefficient zero threshold
    root_imag: float = 1e-9        # |Im| below this counts a root as real


DEFAULT_TOLS = Tolerances()


@dataclass(frozen=True, eq=False)
class IntervalSpec:
    """An interval with explicit endpoint-inclusion flags."""

    lower: float
    upper: float
    include_lower: bool = True
    include_upper: bool = True

    def __post_init__(self):
        if not self.lower < self.upper:
            raise StructuralError(f"empty interval [{self.lower}, {self.upper}]")

    def contains_atom(self, x: float) -> bool:
        if x < self.lower or x > self.upper:
            return False
        if x == self.lower:
            return self.include_lower
        if x == self.upper:
            return self.include_upper
        return True


def _polynomial_many(coeffs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Stacked values of the matrix polynomial ``sum_k coeffs[k] x^k`` at the points ``xs``."""
    val = np.zeros((len(xs),) + coeffs.shape[1:], dtype=complex)
    pw = np.ones(len(xs))
    for c in coeffs:
        val = val + c * pw[:, None, None]
        pw = pw * xs
    return val


@dataclass(frozen=True, eq=False)
class Segment:
    """One smooth stretch of the density.

    ``density`` maps a point to an ``n x n`` complex matrix.  A polynomial
    density may be given as data instead: ``coeffs`` of shape
    ``(d + 1, n, n)``, ascending in degree.  Trailing zero coefficients are
    dropped, ``degree`` becomes that of the last nonzero one, and
    :meth:`MatrixMeasure.density_many` evaluates the segment on a whole array
    of points at once; ``density``, when not given, is a batch of one of it.
    ``degree``, when given, bounds the polynomial degree: 0 marks a constant
    density, propagated in closed form, and any degree lets propagation
    interpolate the density from ``degree + 1`` values per stretch.  None
    means generic smooth.
    """

    interval: tuple[float, float]
    density: Callable[[float], np.ndarray] | None = None
    degree: int | None = None
    coeffs: np.ndarray | None = None

    def __post_init__(self):
        lo, hi = self.interval
        if not lo < hi:
            raise StructuralError(f"segment interval [{lo}, {hi}] is empty")
        if self.coeffs is not None:
            coeffs = np.asarray(self.coeffs, dtype=complex)
            if coeffs.ndim != 3 or not len(coeffs) or coeffs.shape[1] != coeffs.shape[2]:
                raise StructuralError(f"segment coefficients have shape {coeffs.shape}")
            # exact trailing zeros must not send a constant density down the non-constant path
            nonzero = np.flatnonzero(coeffs.reshape(len(coeffs), -1).any(axis=1))
            coeffs = coeffs[: (nonzero[-1] + 1 if nonzero.size else 1)]
            coeffs.setflags(write=False)
            object.__setattr__(self, "coeffs", coeffs)
            object.__setattr__(self, "degree", len(coeffs) - 1)
            if self.density is None:
                object.__setattr__(self, "density", lambda x: _polynomial_many(coeffs, np.array([x]))[0])
        elif self.density is None:
            raise StructuralError("a segment needs a density or its coefficients")


@dataclass(frozen=True, eq=False)
class MatrixMeasure:
    """Density-plus-atoms matrix measure on an open interval."""

    dim: int
    segments: tuple[Segment, ...] = ()
    atoms: tuple[tuple[float, np.ndarray], ...] = ()
    name: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise StructuralError("measure dimension must be positive")
        object.__setattr__(self, "segments", tuple(self.segments))
        atoms = tuple((float(x), np.asarray(w, dtype=complex)) for x, w in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        prev = -np.inf
        for seg in self.segments:
            if seg.interval[0] < prev - 1e-14:
                raise StructuralError("segments overlap or are out of order")
            prev = seg.interval[1]
        prev = -np.inf
        for x, w in atoms:
            if not x > prev:
                raise StructuralError("atom locations must be strictly increasing")
            if w.shape != (self.dim, self.dim):
                raise StructuralError(f"atom weight at {x} has shape {w.shape}")
            prev = x

    # -- basic queries ----------------------------------------------------

    @property
    def atom_locations(self) -> np.ndarray:
        return np.array([x for x, _ in self.atoms])

    def atom_at(self, x: float) -> np.ndarray:
        """Point mass at ``x`` (zero matrix when there is none)."""
        for loc, w in self.atoms:
            if loc == x:
                return w
        return np.zeros((self.dim, self.dim), dtype=complex)

    def density_at(self, x: float) -> np.ndarray:
        return self.density_many(np.array([x]))[0]

    def density_many(self, xs: np.ndarray) -> np.ndarray:
        """Stacked density values at an array of points; a point on a shared
        edge gets the sum of both segments.

        Segments with coefficients are evaluated on all their points at once,
        callable ones point by point.  :meth:`density_at` is a batch of one.
        """
        xs = np.asarray(xs, dtype=float)
        out = np.zeros((len(xs), self.dim, self.dim), dtype=complex)
        for seg in self.segments:
            lo, hi = seg.interval
            inside = (lo <= xs) & (xs <= hi)
            if seg.coeffs is None:
                for i in np.flatnonzero(inside):
                    out[i] = out[i] + np.asarray(seg.density(float(xs[i])), dtype=complex)
            elif inside.any():
                out[inside] = out[inside] + _polynomial_many(seg.coeffs, xs[inside])
        return out

    def breakpoints(self) -> list[float]:
        """Atom locations and segment edges, sorted."""
        pts = set()
        for seg in self.segments:
            pts.update(seg.interval)
        pts.update(x for x, _ in self.atoms)
        return sorted(pts)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(dim: int) -> "MatrixMeasure":
        return MatrixMeasure(dim=dim)

    @staticmethod
    def constant(matrix: np.ndarray, interval: tuple[float, float]) -> "MatrixMeasure":
        """Density equal to ``matrix`` (times Lebesgue measure) on ``interval``."""
        m = np.asarray(matrix, dtype=complex)
        return MatrixMeasure(dim=m.shape[0], segments=(Segment(interval, coeffs=m[None]),))

    @staticmethod
    def point(x: float, weight: np.ndarray) -> "MatrixMeasure":
        w = np.asarray(weight, dtype=complex)
        return MatrixMeasure(dim=w.shape[0], atoms=((x, w),))


@dataclass
class ValidationReport:
    """Structured list of invariant violations found by :func:`validate_measure`."""

    violations: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, location, magnitude: float, detail: str):
        self.violations.append(
            {"kind": kind, "location": location, "magnitude": float(magnitude), "detail": detail}
        )


def _sample_points(seg: Segment, count: int = 7) -> np.ndarray:
    lo, hi = seg.interval
    return lo + (hi - lo) * (np.arange(1, count + 1) / (count + 1.0))


def validate_measure(
    m: MatrixMeasure,
    kind: str,
    tol: float = DEFAULT_TOLS.structural,
) -> ValidationReport:
    """Check hermiticity (``kind='hermitian'``) or positive semidefiniteness
    (``kind='nonnegative'``) of atoms and sampled density values.

    Structural defects (bad ordering, bad shapes) raise
    :class:`StructuralError` at construction time already; this routine only
    reports value-level violations.
    """
    if kind not in ("hermitian", "nonnegative"):
        raise ValueError(f"unknown measure kind {kind!r}")
    report = ValidationReport()
    report.notes.append("only finitely many atoms are representable")

    def check(matrix: np.ndarray, where, label: str):
        herm = float(np.max(np.abs(matrix - matrix.conj().T))) if matrix.size else 0.0
        if herm > tol:
            report.add("hermiticity", where, herm, f"{label} is not hermitian")
            return
        if kind == "nonnegative":
            sym = 0.5 * (matrix + matrix.conj().T)
            min_eig = float(np.min(np.linalg.eigvalsh(sym))) if sym.size else 0.0
            if min_eig < -tol:
                report.add("psd", where, -min_eig, f"{label} has eigenvalue {min_eig:.3e}")

    for x, w in m.atoms:
        check(w, x, f"atom weight at x={x}")
    for seg in m.segments:
        for x in _sample_points(seg):
            check(np.asarray(seg.density(x), dtype=complex), float(x), f"density at x={x:.6g}")
    return report


def integrate_bv(
    integrand: Callable[[np.ndarray, np.ndarray], np.ndarray],
    m: MatrixMeasure,
    iv: IntervalSpec,
    *,
    breakpoints: Sequence[float] = (),
    tols: Tolerances = DEFAULT_TOLS,
    widest: Callable[[float, float], float] | None = None,
    fixed: Sequence[tuple[float, float, int]] = (),
) -> np.ndarray:
    """Integrate ``integrand`` against ``dm`` over ``iv``.

    ``integrand(xs, dms)`` gets an ascending array of points and the stacked
    measure values there, and returns the stacked values of a quantity linear
    in ``dms``.  On a segment the points are quadrature nodes and ``dms`` the
    density matrices at them; at an atom of ``m`` inside ``iv`` the point is
    the atom and ``dms`` its weight, as a stack of one.  Whatever the integrand
    pairs with ``dms`` must take its *balanced* value at an atom; plain smooth
    functions do so trivially.  Atoms at the interval endpoints enter exactly
    when the matching ``include_*`` flag is set.  The density part uses
    adaptive Gauss-Kronrod quadrature with panel edges pinned at atoms,
    segment edges and any caller-supplied breakpoints; ``widest``, when given,
    cuts those panels further (:func:`blockweyl.quadrature.integrate`).

    ``fixed`` lists disjoint pieces ``(a, b, n)`` of the segments inside
    ``iv`` that take the ``n``-point Gauss-Legendre rule instead
    (:func:`blockweyl.quadrature.gauss_legendre`), a caller that has bounded
    that rule's error a priori; the nodes of all of them go to the integrand
    in one call.  Each stretch of a segment left between them takes the
    adaptive quadrature, so without ``fixed`` the result is that of the
    adaptive quadrature alone.
    """
    lo, hi = iv.lower, iv.upper

    def on_nodes(xs: np.ndarray) -> np.ndarray:
        return integrand(xs, m.density_many(xs))

    parts = []
    fixed = sorted(fixed)
    if fixed:
        rules = [quadrature.gauss_legendre(n) for _, _, n in fixed]
        vals = on_nodes(np.concatenate([0.5 * (a + b) + 0.5 * (b - a) * t for (a, b, _), (t, _) in zip(fixed, rules)]))
        stops = np.cumsum([n for _, _, n in fixed])
        for (a, b, n), (_, w), stop in zip(fixed, rules, stops):
            parts.append(0.5 * (b - a) * np.tensordot(w, vals[stop - n : stop], axes=1))
    inner_breaks = list(breakpoints) + [x for x, _ in m.atoms]
    for seg in m.segments:
        s_lo = max(seg.interval[0], lo)
        s_hi = min(seg.interval[1], hi)
        if s_hi <= s_lo:
            continue
        if not (np.isfinite(s_lo) and np.isfinite(s_hi)):
            raise StructuralError(f"segment {seg.interval} meets [{lo}, {hi}] on an unbounded range")
        # the stretches of the segment that no fixed piece covers
        edges = [s_lo] + [x for a, b, _ in fixed if s_lo <= a and b <= s_hi for x in (a, b)] + [s_hi]
        for g_lo, g_hi in zip(edges[::2], edges[1::2]):
            if g_hi <= g_lo:
                continue
            val, _ = quadrature.integrate(
                on_nodes,
                g_lo,
                g_hi,
                breakpoints=inner_breaks,
                rel_tol=tols.quad_rel,
                abs_tol=tols.quad_abs,
                vectorized=True,
                widest=widest,
            )
            parts.append(val)
    for x, w in m.atoms:
        if iv.contains_atom(x):
            parts.append(integrand(np.array([x]), w[None])[0])

    if not parts:  # nothing to integrate: probe the integrand for its shape
        if np.isfinite(lo) and np.isfinite(hi):
            probe_x = 0.5 * (lo + hi)
        elif np.isfinite(lo):
            probe_x = lo + 1.0
        elif np.isfinite(hi):
            probe_x = hi - 1.0
        else:
            probe_x = 0.0
        zero = np.zeros((1, m.dim, m.dim), dtype=complex)
        parts.append(np.zeros_like(integrand(np.array([probe_x]), zero)[0]))
    total = np.zeros(np.shape(parts[0]), dtype=complex)
    for val in parts:
        total = total + val
    return total
