"""Forward and inverse generalized Fourier transforms.

With the spectral measure in hand, the forward map sends data to its
coefficient vectors on the spectral support, and the inverse map synthesizes
functions back from weighted coefficients.  On the closure of the operator
domain the pair is unitary: composing them one way gives the identity on the
transform side, the other way the spectral projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .engine import Engine
from .errors import AccuracyError
from .measures import IntervalSpec, integrate_bv
from .propagation import ArrayForm, VectorFunction, evaluate_many, forward_transform_compact, sampled
from .spectral import SpectralMeasureModel
from .system import BoundaryConditions, SystemSpec


def w_inner(sys: SystemSpec, g1, g2) -> complex:
    """Weighted inner product ``int g1^* w g2``, each function read through
    :func:`~blockweyl.propagation.sampled` and evaluated once per quadrature
    batch (:func:`~blockweyl.propagation.evaluate_many`)."""
    a, b = sys.interval
    breaks = list(getattr(g1, "breakpoints", ())) + list(getattr(g2, "breakpoints", ()))
    breaks += sys.atom_positions()
    same = g2 is g1
    g1 = sampled(sys, g1)
    g2 = g1 if same else sampled(sys, g2)

    def pairing(xs: np.ndarray, dws: np.ndarray) -> np.ndarray:
        G1 = evaluate_many(g1, xs)
        G2 = G1 if g2 is g1 else evaluate_many(g2, xs)
        return (np.conj(G1)[:, None, :] @ dws) @ G2[:, :, None]

    val = integrate_bv(pairing, sys.w, IntervalSpec(a, b), breakpoints=breaks, tols=sys.tols)
    return complex(val.reshape(-1)[0])


def w_norm(sys: SystemSpec, g) -> float:
    return float(np.sqrt(max(w_inner(sys, g, g).real, 0.0)))


@dataclass
class TauVector:
    """Coefficient vectors on the support of a spectral-measure model."""

    model: SpectralMeasureModel
    values: np.ndarray  # (num_atoms, coeff_dim)

    def norm_sq(self, within: float | None = None) -> float:
        total = 0.0
        for atom, v in zip(self.model.atoms, self.values):
            if within is not None and abs(atom.s) > within:
                continue
            total += float(np.real(v.conj() @ atom.weight @ v))
        return total

    @property
    def norm(self) -> float:
        return float(np.sqrt(max(self.norm_sq(), 0.0)))

    def gap_to(self, other: "TauVector") -> float:
        """Norm of the difference in the weighted metric."""
        diff = TauVector(self.model, self.values - other.values)
        return diff.norm


def forward_transform(
    sys: SystemSpec,
    bc: BoundaryConditions,
    model: SpectralMeasureModel,
    f: Callable[[float], np.ndarray],
    *,
    engine: Engine | None = None,
    cauchy_tol: float = 1e-8,
    max_levels: int = 10,
) -> TauVector:
    """Sample the forward transform of ``f`` at the model's support points.

    Compactly supported data (always the case on a finite interval with
    regular endpoints) integrates directly; otherwise the support is exhausted
    by shrinking truncations until the transform increments become Cauchy
    (raising :class:`AccuracyError` if they fail to shrink, or are still
    above ``cauchy_tol`` after ``max_levels`` truncations).
    """
    eng = engine or Engine(sys, bc)
    support = [a.s for a in model.atoms]
    if not support:
        return TauVector(model, np.zeros((0, eng.coeff_dim), dtype=complex))

    a, b = sys.interval
    direct = (
        np.isfinite(a)
        and np.isfinite(b)
        and sys.endpoint_a.regular
        and sys.endpoint_b.regular
    )
    supp = getattr(f, "support", None)
    if supp is not None and np.isfinite(supp[0]) and np.isfinite(supp[1]):
        direct = True

    # every atom row from one fetch: the missing ones are built in one array call
    rows = eng.rows([np.conj(complex(s)) for s in support])

    def sample_all(fn) -> np.ndarray:
        fn = sampled(sys, fn)  # one form for every atom
        return np.stack([
            forward_transform_compact(sys, fn, s, row_conj=row, sing=eng.sing, anchors=eng.anchors)
            for s, row in zip(support, rows)
        ])

    if direct:
        return TauVector(model, sample_all(f))

    lo0 = a if np.isfinite(a) else -1.0
    hi0 = b if np.isfinite(b) else 1.0
    prev = None
    prev_gap = None
    grow = 0
    for level in range(max_levels):
        if np.isfinite(a) and np.isfinite(b):
            margin = (b - a) / 2 ** (level + 3)
            lo, hi = a + margin, b - margin
        else:
            half = 2.0 ** level
            lo = a if np.isfinite(a) else lo0 - half
            hi = b if np.isfinite(b) else hi0 + half
        masked = VectorFunction(
            fn=f, support=(lo, hi),
            breakpoints=tuple(getattr(f, "breakpoints", ())) + (lo, hi),
        )
        cur = TauVector(model, sample_all(masked))
        if prev is not None:
            gap = cur.gap_to(prev)
            if gap <= cauchy_tol * max(1.0, cur.norm):
                return cur
            if prev_gap is not None and gap > prev_gap:
                grow += 1
                if grow >= 2:
                    raise AccuracyError(
                        "truncation increments of the forward transform are not shrinking",
                        achieved=gap,
                    )
            prev_gap = gap
        prev = cur
    raise AccuracyError(
        f"truncation increments of the forward transform did not reach {cauchy_tol:.1e} "
        f"in {max_levels} truncations",
        achieved=prev_gap,
    )


class SpectralSynthesis:
    """Function synthesized from spectral coefficients: ``x -> sum row(x, s) W(s) g(s)``,
    read through :meth:`many`; a single point is a batch of one."""

    def __init__(self, sys: SystemSpec, model: SpectralMeasureModel, ghat: TauVector, engine: Engine):
        self.sys = sys
        self.model = model
        self.engine = engine
        self.support = None
        self.breakpoints = tuple(sys.atom_positions())
        self._terms = []
        for atom, v in zip(model.atoms, ghat.values):
            coeff = atom.weight @ v
            if np.max(np.abs(coeff)) == 0.0:
                continue
            self._terms.append((engine.row(complex(atom.s)), coeff))

    def many(self, xs: np.ndarray, side: str = "balanced") -> np.ndarray:
        """Values at an ascending array of points, stacked: ``row.many(xs, side) @ coeff`` summed over the terms."""
        out = np.zeros((len(xs), self.sys.dim), dtype=complex)
        for row, coeff in self._terms:
            out = out + row.many(xs, side) @ coeff
        return out

    def balanced(self, x: float) -> np.ndarray:
        return self.many(np.array([x]))[0]

    def left(self, x: float) -> np.ndarray:
        return self.many(np.array([x]), "left")[0]

    def right(self, x: float) -> np.ndarray:
        return self.many(np.array([x]), "right")[0]

    __call__ = balanced


def inverse_transform(
    sys: SystemSpec,
    model: SpectralMeasureModel,
    ghat: TauVector,
    *,
    engine: Engine | None = None,
    bc: BoundaryConditions | None = None,
) -> SpectralSynthesis:
    """Synthesize the balanced BV function with spectral coefficients ``ghat``."""
    eng = engine or Engine(sys, bc)
    return SpectralSynthesis(sys, model, ghat, eng)


def eigen_projection(
    sys: SystemSpec,
    model: SpectralMeasureModel,
    *,
    fhat: TauVector,
    within: float | None = None,
    engine: Engine | None = None,
) -> SpectralSynthesis:
    """Truncated spectral projection built directly from the model atoms."""
    eng = engine or Engine(sys)
    values = fhat.values.copy()
    for i, atom in enumerate(model.atoms):
        if within is not None and abs(atom.s) > within:
            values[i] = 0.0
    return SpectralSynthesis(sys, model, TauVector(model, values), eng)


def parseval_check(
    sys: SystemSpec,
    bc: BoundaryConditions,
    model: SpectralMeasureModel,
    f: Callable[[float], np.ndarray],
    truncation: float,
    *,
    engine: Engine | None = None,
    fhat: TauVector | None = None,
    quadrature_norm_max_atoms: int = 64,
) -> dict:
    """Compare the truncated transform-side and function-side Parseval sums.

    ``fhat`` is the forward transform of ``f``; it is computed when not given.
    Returns the transform-side sum, the weighted norm of the truncated
    spectral projection, and a tail estimate from the truncation increments.
    ``tail_estimate`` is the tau-mass of the transform on
    ``truncation / 2 < |s| <= truncation``.  It matches the tail beyond
    ``truncation`` when ``|f^(s)|^2 ~ c / s^2``, the generic rate for data that
    miss the boundary conditions, and overestimates it for faster decay.
    The projection norm is integrated directly when few atoms are involved;
    for large truncations it falls back to the coefficient sum after a
    quadrature spot check of eigenfunction orthonormality on the six largest
    contributors, one inner product per unordered pair (the reported
    ``orthonormality_defect`` bounds the substitution error).
    """
    eng = engine or Engine(sys, bc)
    if fhat is None:
        fhat = forward_transform(sys, bc, model, f, engine=eng)
    tau_sq = fhat.norm_sq(within=truncation)
    half_sq = fhat.norm_sq(within=truncation / 2.0)
    tail_estimate = max(tau_sq - half_sq, 0.0)

    atoms_in = [i for i, a in enumerate(model.atoms) if abs(a.s) <= truncation]
    ortho_defect = 0.0
    if len(atoms_in) <= quadrature_norm_max_atoms:
        proj = eigen_projection(sys, model, fhat=fhat, within=truncation, engine=eng)
        proj_sq = w_inner(sys, proj, proj).real
    else:
        # coefficient sum; certify orthonormality on the largest contributors
        contrib = []
        for i in atoms_in:
            atom = model.atoms[i]
            if atom.vectors is None:
                continue
            for c in range(atom.vectors.shape[1]):
                eta = atom.vectors[:, c]
                amp = abs(np.conj(eta) @ fhat.values[i])
                contrib.append((amp, i, c))
        contrib.sort(reverse=True, key=lambda t: t[0])
        top = contrib[:6]
        funcs = []
        for _, i, c in top:
            atom = model.atoms[i]
            eta = atom.vectors[:, c]
            row = eng.row(complex(atom.s))
            funcs.append(
                VectorFunction(
                    fn=ArrayForm(lambda xs, row=row, eta=eta: row.balanced_many(xs) @ eta),
                    breakpoints=tuple(sys.atom_positions()),
                )
            )
        # w_inner(gk, gi) is the conjugate of w_inner(gi, gk), and the target
        # is real, so the pairs i <= k give every defect
        for i, gi in enumerate(funcs):
            for k, gk in enumerate(funcs[i:], i):
                val = w_inner(sys, gi, gk)
                target = 1.0 if i == k else 0.0
                ortho_defect = max(ortho_defect, abs(val - target))
        proj_sq = tau_sq
    return {
        "transform_sq": float(tau_sq),
        "projection_sq": float(proj_sq),
        "tail_estimate": float(tail_estimate),
        "orthonormality_defect": float(ortho_defect),
    }


def multiplication_check(
    sys: SystemSpec,
    bc: BoundaryConditions,
    model: SpectralMeasureModel,
    u: Callable[[float], np.ndarray],
    f: Callable[[float], np.ndarray],
    *,
    engine: Engine | None = None,
) -> float:
    """Residual of the multiplication property for a pair solving the equation.

    For ``(u, f)`` in the realized relation the transform intertwines the
    operator with multiplication by the spectral variable; returns the largest
    residual of ``(Ff)(t) - t (Fu)(t)`` over the model support, measured in
    the weighted metric of the spectral measure (transform values are only
    determined modulo the kernel of the atom weights).
    """
    eng = engine or Engine(sys, bc)
    fu = forward_transform(sys, bc, model, u, engine=eng)
    ff = forward_transform(sys, bc, model, f, engine=eng)
    worst = 0.0
    for atom, vu, vf in zip(model.atoms, fu.values, ff.values):
        d = vf - atom.s * vu
        worst = max(worst, float(np.sqrt(np.real(d.conj() @ atom.weight @ d))))
    return worst
