"""Problem definition and analysis of exceptional spectral parameters.

``SystemSpec`` holds the triple ``(J, q, w)`` on an interval together with
endpoint regularity data.  The analysis operations locate, for every atom of
the coefficients, the spectral parameters where the jump matrices

    ``B_plus(x, lam) = J + (Dq(x) - lam*Dw(x))/2``
    ``B_minus(x, lam) = J - (Dq(x) - lam*Dw(x))/2``

degenerate.  Atoms where that happens for some *real* parameter become
partition points: solutions cannot be continued across them, so downstream
modules work on the subintervals they delimit and couple the pieces through a
block linear system instead.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import StructuralError
from .measures import DEFAULT_TOLS, MatrixMeasure, Tolerances, ValidationReport, validate_measure


class BoundedStore:
    """Derived values by key, at most ``capacity`` of them, the least recently
    used going first.  A value must be deterministic in its key, so that one
    evicted and built again is equal.

    Access is guarded by a lock.  A missing value is built outside it; when
    two threads race on one key the first value stored wins.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._values: OrderedDict = OrderedDict()

    def get(self, key, build: Callable[[], object]):
        """The value stored under ``key``, built by ``build`` on a miss."""
        with self._lock:
            try:
                self._values.move_to_end(key)
            except KeyError:
                pass
            else:
                return self._values[key]
        value = build()
        with self._lock:
            value = self._values.setdefault(key, value)
            while len(self._values) > self.capacity:
                self._values.popitem(last=False)
            return value

    def peek(self, keys) -> dict:
        """The stored values of ``keys`` by key, neither built nor reordered."""
        with self._lock:
            return {key: self._values[key] for key in keys if key in self._values}

    def __iter__(self):
        with self._lock:
            return iter(list(self._values))

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)


#: derived values kept per system (``SystemSpec.derived``): the fits of its
#: own stretches and of those that the drives of recent solves add, its
#: constant flows and its atom gates
DERIVED_CAPACITY = 64


@dataclass(frozen=True, eq=False)
class EndpointSpec:
    """Regularity data for one interval endpoint.

    Regular endpoints need nothing else.  Singular endpoints must supply the
    span of coefficient vectors of square-integrable solutions (a constant
    matrix of column vectors, or a callable of the spectral parameter), since
    the package does not classify singular endpoints on its own.
    """

    regular: bool = True
    l2_span: np.ndarray | Callable[[complex], np.ndarray] | None = None
    boundary_limit: Callable[[complex], np.ndarray] | None = None


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """The spectral problem ``J u' + (q - lam w) u = w f`` on ``(a, b)``.

    ``J`` must be square, skew-hermitian and invertible; ``q`` and ``w`` of its
    dimension, hermitian and non-negative, with their atoms inside the open
    interval; the interval nonempty and a regular endpoint finite.  Otherwise
    construction raises :class:`StructuralError` with the first violation as
    its message and all of them, each naming its config field, as its
    ``report``.  ``notes`` keeps that report's caveats.
    """

    J: np.ndarray
    q: MatrixMeasure
    w: MatrixMeasure
    interval: tuple[float, float]
    endpoint_a: EndpointSpec = field(default_factory=EndpointSpec)
    endpoint_b: EndpointSpec = field(default_factory=EndpointSpec)
    anchors: tuple[float, ...] | None = None
    tols: Tolerances = DEFAULT_TOLS
    name: str = ""

    def __post_init__(self):
        J = np.asarray(self.J, dtype=complex)
        object.__setattr__(self, "J", J)
        report = ValidationReport()
        found = report.violations
        n = J.shape[0]
        if J.shape != (n, n):
            found.append(_violation("J", "square", 0.0, "J must be square"))
        else:
            tol = self.tols.structural * max(1.0, float(np.linalg.norm(J)))
            if (skew := float(np.max(np.abs(J + J.conj().T)))) > tol:
                found.append(_violation("J", "skew-hermitian", skew, "J must be skew-hermitian"))
            if (det := abs(np.linalg.det(J))) <= tol:
                found.append(_violation("J", "invertible", det, "J must be invertible"))
        measures = (("q", self.q, "hermitian"), ("w", self.w, "nonnegative"))
        found += [
            _violation(label, "dimension", 0.0, "coefficient dimensions do not match J")
            for label, m, _ in measures if m.dim != n
        ]
        a, b = self.interval
        if not a < b:
            found.append(_violation("interval", "nonempty", a - b, "interval must be nonempty"))
        found += [
            _violation(label, "atom-location", max(a - x, x - b), f"atom at {x} lies outside the open interval", x)
            for label, m, _ in measures for x, _ in m.atoms if not a < x < b
        ]
        found += [
            _violation(f"endpoints.{side}", "finite", 0.0, "a regular endpoint must be finite")
            for side, ep, point in zip("ab", (self.endpoint_a, self.endpoint_b), self.interval)
            if ep.regular and not np.isfinite(point)
        ]
        for label, m, kind in measures:
            rep = validate_measure(m, kind, self.tols.structural)
            found += [{**v, "field": label, "detail": f"{label} fails {kind} validation: {v['detail']}"}
                      for v in rep.violations]
            report.notes += [f"{label}: {note}" for note in rep.notes]
        if found:
            raise StructuralError(found[0]["detail"], report)
        object.__setattr__(self, "notes", tuple(report.notes))

        # constant data read on every propagation step, computed once
        J_inv = np.linalg.inv(J)
        J_inv.setflags(write=False)
        object.__setattr__(self, "_J_inv", J_inv)
        atoms = sorted(set(self.q.atom_locations).union(self.w.atom_locations))
        object.__setattr__(self, "_atoms", tuple(atoms))
        object.__setattr__(self, "_atom_set", frozenset(atoms))
        # filled by propagation: the density fits of a stretch
        # under ("fit", lo, hi), the flow of a constant stretch under ("flow",
        # Q bytes, W bytes), the condition number of a lam-free jump matrix
        # at an atom without w mass under ("cond", x, direction)
        object.__setattr__(self, "derived", BoundedStore(DERIVED_CAPACITY))

    @property
    def dim(self) -> int:
        return self.J.shape[0]

    @property
    def J_inv(self) -> np.ndarray:
        return self._J_inv

    def atom_positions(self) -> list[float]:
        """Union of atom locations of q and w (ascending), as a fresh list."""
        return list(self._atoms)

    def is_atom(self, x: float) -> bool:
        return float(x) in self._atom_set


@dataclass(frozen=True, eq=False)
class BoundaryConditions:
    """Boundary data in endpoint-matrix form.

    Row ``j`` imposes ``Gb[j] @ u_minus(b) - Ga[j] @ u_plus(a) = 0``.  For a
    singular endpoint the matching rows must be zero and the endpoint's
    ``boundary_limit`` evaluator supplies the boundary block instead.
    """

    Ga: np.ndarray
    Gb: np.ndarray

    def __post_init__(self):
        Ga = np.atleast_2d(np.asarray(self.Ga, dtype=complex))
        Gb = np.atleast_2d(np.asarray(self.Gb, dtype=complex))
        if Ga.shape != Gb.shape:
            raise StructuralError("Ga and Gb must have identical shapes")
        object.__setattr__(self, "Ga", Ga)
        object.__setattr__(self, "Gb", Gb)

    @property
    def count(self) -> int:
        return self.Ga.shape[0]

    def selfadjointness_defect(self, J: np.ndarray) -> float:
        """Residual of ``Gb J^-1 Gb* - Ga J^-1 Ga* = 0``."""
        Jinv = np.linalg.inv(np.asarray(J, dtype=complex))
        gap = self.Gb @ Jinv @ self.Gb.conj().T - self.Ga @ Jinv @ self.Ga.conj().T
        return float(np.max(np.abs(gap))) if gap.size else 0.0

    def violations(self, J: np.ndarray, tols: Tolerances) -> list[dict]:
        """Violated boundary hypotheses for a square invertible ``J``: ``n``
        columns, and the self-adjointness identity at the structural
        tolerance scaled by ``|Ga| + |Gb|``."""
        if self.Ga.shape[1] != J.shape[0]:
            return [_violation("boundary", "shape", 0.0, "boundary rows must have n columns")]
        defect = self.selfadjointness_defect(J)
        if defect <= tols.structural * max(1.0, float(np.linalg.norm(self.Ga) + np.linalg.norm(self.Gb))):
            return []
        detail = f"boundary data fails the self-adjointness identity (defect {defect:.3e})"
        return [_violation("boundary", "self-adjointness", defect, detail)]

    def validate(self, sys: SystemSpec) -> None:
        """Raise :class:`StructuralError` on the first of :meth:`violations`."""
        found = self.violations(sys.J, sys.tols)
        if found:
            raise StructuralError(found[0]["detail"])


def _violation(field: str, kind: str, magnitude: float, detail: str, location=None) -> dict:
    """One entry of a :class:`ValidationReport`; ``magnitude`` is 0 where a
    violation has no size (a wrong shape, an infinite regular endpoint)."""
    return {"field": field, "kind": kind, "location": location, "magnitude": float(magnitude), "detail": detail}


@dataclass
class LambdaRecord:
    """Exceptional spectral parameters attached to one atom."""

    x: float
    kind: str                      # 'empty' | 'finite' | 'all'
    roots: tuple[complex, ...] = ()

    @property
    def meets_real_axis(self) -> bool:
        return self.kind == "all" or any(r.imag == 0.0 for r in self.roots)


@dataclass
class SingularitySet:
    """Partition points and the nonreal exceptional set of a system."""

    records: list[LambdaRecord]
    partition: list[float]
    tilde_lambda: list[complex]
    isolated_points_hypothesis: bool = True  # finite atom count makes this automatic


def jump_matrices(sys: SystemSpec, x: float, lam: complex | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both jump matrices ``(B_minus, B_plus)`` at ``x``, stacked over an array ``lam``.

    The identity ``B_minus(x, lam) = -B_plus(x, conj(lam))^*`` holds exactly
    for hermitian atom data.
    """
    dq = sys.q.atom_at(x)
    dw = sys.w.atom_at(x)
    step = 0.5 * (dq - np.asarray(lam)[..., None, None] * dw)
    return sys.J - step, sys.J + step


def _det_polynomial(C: np.ndarray, D: np.ndarray, tols: Tolerances) -> np.ndarray:
    """Coefficients (ascending) of ``det(C - lam*D)`` via interpolation."""
    n = C.shape[0]
    pts = np.arange(n + 1, dtype=float)
    vals = np.array([np.linalg.det(C - t * D) for t in pts])
    # Vandermonde solve; degree <= n keeps this well conditioned
    V = np.vander(pts, n + 1, increasing=True)
    coeffs = np.linalg.solve(V, vals)
    scale = max(1.0, float(np.linalg.norm(C) + np.linalg.norm(D))) ** n
    coeffs[np.abs(coeffs) < tols.coeff_zero_rel * scale] = 0.0
    return coeffs


def _symmetrize_roots(roots: np.ndarray, tol: float) -> list[complex]:
    """Snap near-real roots to the axis and pair the rest into conjugate pairs."""
    cleaned: list[complex] = []
    pool = [complex(r) for r in roots]
    while pool:
        r = pool.pop(0)
        if abs(r.imag) <= tol * (1.0 + abs(r)):
            cleaned.append(complex(r.real, 0.0))
            continue
        # find the closest remaining root to conj(r)
        if pool:
            dists = [abs(p - np.conj(r)) for p in pool]
            k = int(np.argmin(dists))
            if dists[k] <= 1e-6 * (1.0 + abs(r)):
                mate = pool.pop(k)
                c = 0.5 * (r + np.conj(mate))
                cleaned.extend([c, np.conj(c)])
                continue
        cleaned.extend([r, np.conj(r)])
    # dedupe
    out: list[complex] = []
    for r in cleaned:
        if not any(abs(r - s) <= 1e-9 * (1.0 + abs(r)) for s in out):
            out.append(r)
    return sorted(out, key=lambda z: (z.real, z.imag))


def singular_lambdas_at(sys: SystemSpec, x: float) -> LambdaRecord:
    """Spectral parameters where a jump matrix at ``x`` degenerates.

    Works on ``det B_plus(x, .)``, a polynomial of degree at most ``n``; the
    result is closed under conjugation because ``B_minus`` degenerates exactly
    at the conjugates of the ``B_plus`` roots.
    """
    dq = sys.q.atom_at(x)
    dw = sys.w.atom_at(x)
    if not np.any(dq) and not np.any(dw):
        return LambdaRecord(x=x, kind="empty")
    C = sys.J + 0.5 * dq
    D = 0.5 * dw
    coeffs = _det_polynomial(C, D, sys.tols)
    if not np.any(coeffs):
        return LambdaRecord(x=x, kind="all")
    trimmed = np.trim_zeros(coeffs, trim="b")
    if trimmed.size == 1:
        return LambdaRecord(x=x, kind="empty")
    roots = np.roots(trimmed[::-1])
    sym = _symmetrize_roots(roots, sys.tols.root_imag)
    return LambdaRecord(x=x, kind="finite", roots=tuple(sym))


def partition_points(sys: SystemSpec) -> SingularitySet:
    """Scan every atom and split off the partition points.

    Since only finitely many atoms are representable, the leftover nonreal
    exceptional set is finite, hence automatically a closed set of isolated
    points; the flag on the result records this.
    """
    records = [singular_lambdas_at(sys, x) for x in sys.atom_positions()]
    partition = [rec.x for rec in records if rec.meets_real_axis]
    tilde: list[complex] = []
    for rec in records:
        if rec.meets_real_axis:
            continue
        for r in rec.roots:
            if not any(abs(r - t) <= 1e-9 * (1.0 + abs(r)) for t in tilde):
                tilde.append(r)
    return SingularitySet(
        records=records,
        partition=partition,
        tilde_lambda=sorted(tilde, key=lambda z: (z.real, z.imag)),
    )


def subintervals(sys: SystemSpec, sing: SingularitySet | None = None) -> list[tuple[float, float]]:
    """The intervals delimited by the partition points (and the endpoints)."""
    if sing is None:
        sing = partition_points(sys)
    a, b = sys.interval
    edges = [a] + list(sing.partition) + [b]
    return list(zip(edges[:-1], edges[1:]))


def choose_anchors(sys: SystemSpec, sing: SingularitySet | None = None) -> list[float]:
    """One non-atom normalization point per subinterval.

    Midpoint of the subinterval by default; when the midpoint carries an atom
    it is nudged to the nearest dyadic offset that does not.  Unbounded
    subintervals fall back to unit distance from their finite end (0 when both
    ends are infinite).  Explicit ``sys.anchors`` override the rule after a
    location check.
    """
    ivs = subintervals(sys, sing)
    if sys.anchors is not None:
        anchors = [float(x) for x in sys.anchors]
        if len(anchors) != len(ivs):
            raise StructuralError(
                f"expected {len(ivs)} anchors (one per subinterval), got {len(anchors)}"
            )
        for xi, (lo, hi) in zip(anchors, ivs):
            if not lo <= xi <= hi:
                raise StructuralError(f"anchor {xi} outside subinterval [{lo}, {hi}]")
            if sys.is_atom(xi):
                raise StructuralError(f"anchor {xi} sits on an atom")
        return anchors

    out = []
    for lo, hi in ivs:
        if not lo < hi:
            raise StructuralError(f"empty subinterval [{lo}, {hi}]")
        if np.isfinite(lo) and np.isfinite(hi):
            mid, step = 0.5 * (lo + hi), 0.25 * (hi - lo)
        elif np.isfinite(lo):
            mid, step = lo + 1.0, 0.5
        elif np.isfinite(hi):
            mid, step = hi - 1.0, 0.5
        else:
            mid, step = 0.0, 0.5
        xi = mid
        if sys.is_atom(xi):
            xi = None
            for j in range(2, 50):
                for sign in (1.0, -1.0):
                    cand = mid + sign * step / 2 ** (j - 2)
                    if lo < cand < hi and not sys.is_atom(cand):
                        xi = cand
                        break
                if xi is not None:
                    break
            if xi is None:
                raise StructuralError(f"no non-atom anchor found in ({lo}, {hi})")
        out.append(xi)
    return out
