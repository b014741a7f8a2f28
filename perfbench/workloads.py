"""The three benchmark workloads: seeded inputs, one operation, its gate.

Every workload calls only the public API (names exported from ``blockweyl``
plus ``blockweyl.cli.ProblemConfig``) and gives each problem one explicit
``Engine(sys, bc)``.  Inputs come from the seed alone; they are drawn in
stratified cycles so that the mix of cheap and expensive operations in a run
varies little from seed to seed.

``setup()`` builds fresh problems and engines (it is timed, several times per
run), ``operations()`` yields the seeded operation inputs forever, ``run()`` is
the timed operation and ``check()`` its correctness gate, run outside the
timed section.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import blockweyl as bw
from blockweyl.cli import ProblemConfig

PI = math.pi


@dataclass
class Problem:
    name: str
    sys: object
    bc: object
    eng: object
    eps: tuple = (1e-2, 1e-3, 1e-4)
    model: object = None
    atom: float | None = None   # the q atom of a generated smooth problem


def _shipped(name: str) -> Problem:
    cfg = ProblemConfig.load(name)
    eng = bw.Engine(cfg.system, cfg.boundary)
    return Problem(name, cfg.system, cfg.boundary, eng, cfg.eps_schedule)


def _strata(rng: np.random.Generator, count: int):
    """Stratified uniform draws in [0, 1): one per stratum, strata in seeded order."""
    while True:
        for j in rng.permutation(count):
            yield (j + rng.random()) / count


def gauss_legendre(edges, order: int = 20, panels: int = 40):
    """Composite Gauss-Legendre nodes and weights on consecutive ``edges``.

    Each stretch gets a share of ``panels`` proportional to its length, so
    solution rows up to frequency 80 on (0, pi) are integrated to roundoff.
    """
    t, w = np.polynomial.legendre.leggauss(order)
    total = edges[-1] - edges[0]
    xs, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        cuts = np.linspace(lo, hi, max(1, math.ceil(panels * (hi - lo) / total)) + 1)
        for a, b in zip(cuts[:-1], cuts[1:]):
            xs.append(0.5 * (a + b) + 0.5 * (b - a) * t)
            ws.append(0.5 * (b - a) * w)
    return np.concatenate(xs), np.concatenate(ws)


def rotation(theta: np.ndarray) -> np.ndarray:
    """Fundamental matrices of the free system ``J u' = lam u`` anchored at zero,
    stacked over the phases ``theta = lam * x``."""
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([c, s], -1), np.stack([-s, c], -1)], -2).astype(complex)


# ---------------------------------------------------------------------------


class Spectrum:
    """``spectral_measure_model`` on seeded unit windows inside [-80, 80].

    P1-P4 in rotation.  Each window is ``(k + d, k + 1 + d)`` with integer
    ``k`` and ``d`` in [0.1, 0.9], so it holds exactly one integer and no
    window edge sits near one.  Gate: on P1 the atoms are exactly the
    integers in the window, each to 1e-8; the library's own scan-versus-
    inversion cross-validation raising counts as a failure of the operation.
    """

    name = "spectrum"
    PROBLEMS = ("P1", "P2", "P3", "P4")
    STRATA = 16
    TOL = 1e-8

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> list[Problem]:
        problems = [_shipped(name) for name in self.PROBLEMS]
        for p in problems:
            bw.norm_zero_space(p.sys, engine=p.eng)
        return problems

    def operations(self, problems):
        rng = np.random.default_rng([self.seed, 1])
        draws = [_strata(rng, self.STRATA) for _ in problems]
        i = 0
        while True:
            p = i % len(problems)
            k = -80 + int(next(draws[p]) * 159)          # -80 .. 78
            yield p, k + rng.uniform(0.1, 0.9)
            i += 1

    def run(self, problems, spec):
        p, lo = spec
        prob = problems[p]
        return bw.spectral_measure_model(
            prob.sys, prob.bc, (lo, lo + 1.0), engine=prob.eng, eps_schedule=prob.eps
        )

    def check(self, problems, spec, model) -> bool:
        p, lo = spec
        if problems[p].name != "P1":
            return True
        expected = list(range(math.ceil(lo), math.floor(lo + 1.0) + 1))
        found = sorted(a.s for a in model.atoms)
        return len(found) == len(expected) and all(
            abs(s - k) <= self.TOL for s, k in zip(found, expected)
        )


class Expansion:
    """One forward-transform coefficient of a seeded piecewise polynomial.

    Set-up builds the spectral models of P1 and P2 out to ``|s| <= T``.  One
    operation transforms ``f`` (degree-2 pieces joined at one interior
    breakpoint) onto one atom through ``forward_transform`` on a one-atom
    ``SpectralMeasureModel``; atoms are visited in seeded permutations.
    Gate: a fixed-order Gauss-Legendre rule reproduces the coefficient, with
    the analytic free rows ``rotation(s x)`` on P1 and the library's row on P2.
    """

    name = "expansion"
    PROBLEMS = ("P1", "P2")
    T = 80.0
    TOL = 1e-10

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> list[Problem]:
        problems = [_shipped(name) for name in self.PROBLEMS]
        for p in problems:
            p.model = bw.spectral_measure_model(
                p.sys, p.bc, (-self.T - 0.5, self.T + 0.5), engine=p.eng, eps_schedule=p.eps
            )
        return problems

    @staticmethod
    def piecewise(xb: float, left: np.ndarray, right: np.ndarray):
        """``f`` with polynomial pieces on (0, xb) and (xb, pi), balanced at ``xb``."""

        def poly(coeffs, x):
            return coeffs[:, 0] + coeffs[:, 1] * x + coeffs[:, 2] * x * x

        def fn(x):
            if x < xb:
                return poly(left, x)
            if x > xb:
                return poly(right, x)
            return 0.5 * (poly(left, x) + poly(right, x))

        return bw.VectorFunction(fn=fn, support=(0.0, PI), breakpoints=(xb,))

    @staticmethod
    def piecewise_many(xb: float, left: np.ndarray, right: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Reference evaluation of ``piecewise(xb, left, right)`` at an array of points."""
        powers = np.stack([np.ones_like(xs), xs, xs * xs])
        lo, hi = (np.tensordot(c, powers, axes=1).T for c in (left, right))
        side = (xs < xb)[:, None]
        return np.where(side, lo, np.where((xs > xb)[:, None], hi, 0.5 * (lo + hi)))

    def operations(self, problems):
        rng = np.random.default_rng([self.seed, 2])
        queues = [[] for _ in problems]
        i = 0
        while True:
            p = i % len(problems)
            if not queues[p]:
                queues[p] = list(rng.permutation(len(problems[p].model.atoms)))
            k = int(queues[p].pop())
            xb = rng.uniform(0.3, PI - 0.3)
            left, right = (rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)) for _ in "lr")
            yield p, k, (xb, left, right), self.piecewise(xb, left, right)
            i += 1

    def run(self, problems, spec):
        p, k, _, f = spec
        prob = problems[p]
        one = bw.SpectralMeasureModel(atoms=[prob.model.atoms[k]], scan_range=prob.model.scan_range)
        return bw.forward_transform(prob.sys, prob.bc, one, f, engine=prob.eng).values[0]

    def reference(self, prob: Problem, s: float, pieces) -> tuple[np.ndarray, float]:
        """Gauss-Legendre value of ``int row(x, s)^* w f`` and of ``int |f|``."""
        a, b = prob.sys.interval
        edges = sorted({a, b, pieces[0], *prob.sys.atom_positions()})
        xs, ws = gauss_legendre(edges)
        if prob.name == "P1":
            rows = rotation(s * xs)
        else:
            rows = prob.eng.row(complex(s)).balanced_many(xs)
        fs = self.piecewise_many(*pieces, xs)
        dens = prob.sys.w.density_many(xs)
        vals = np.einsum("mji,mjk,mk->mi", rows.conj(), dens, fs)
        return ws @ vals, float(ws @ np.abs(fs).sum(axis=1))

    def check(self, problems, spec, coeff) -> bool:
        p, k, pieces, _ = spec
        prob = problems[p]
        ref, scale = self.reference(prob, prob.model.atoms[k].s, pieces)
        return float(np.max(np.abs(coeff - ref))) <= self.TOL * max(1.0, scale)


class SmoothResolvent:
    """``ResolventFunction`` on seeded smooth problems, evaluated at 5 points.

    Problems live on (0, pi) with P1's ``J``, ``w`` and boundary rows, a
    degree-2 polynomial ``q`` density and one ``q`` atom, so rows go through
    the DOP853 path and ``PartialTransform`` through scalar quadrature.  One
    operation builds the resolvent at a nonreal ``lam`` with ``|Re lam| <= 15``
    for a constant ``f`` and evaluates it at 5 points.
    Gate: central-difference equation defect <= 1e-7 (relative) at the 5
    points and jump residual at the atom <= 1e-12 (relative).  The defect at
    ``x`` is ``J (R(x+H) - R(x-H)) / 2H`` plus the window average of
    ``(q - lam w) R - w f`` over ``[x-H, x+H]``, which vanishes exactly for
    the true resolvent (up to the ~3e-9 error of the averaging rule).
    Pointwise stencils cannot certify 1e-7 here: the computed ``R`` carries
    jumps of ~1e-9 where the adaptive quadrature in ``PartialTransform``
    changes its panels as ``x`` moves, and a stencil of step h turns them into
    ~1e-9/h, while truncation grows like a power of ``h |lam|`` with ``|lam|``
    up to 15.  The window form sees a jump as ~1e-9/2H and has no truncation
    error.
    """

    name = "smooth_resolvent"
    PROBLEMS = 6
    Q_SIZE = 1.0       # max over (0, pi) of the spectral norm of the q density
    ATOM_SIZE = 0.5    # spectral norm of the q atom
    STRATA = 10
    HALF_WIDTH = 0.04   # points lie >= 0.05 from the atom and >= 0.1 from the ends
    # 5-point Gauss-Lobatto rule on [-1, 1] (error ~3e-9 for |lam| <= 15 at this width):
    # its end nodes are the central-difference points, its centre the operation's value
    LOBATTO = ((-1.0, 0.1), (-math.sqrt(3 / 7), 49 / 90), (0.0, 32 / 45),
               (math.sqrt(3 / 7), 49 / 90), (1.0, 0.1))
    DEFECT_TOL = 1e-7
    JUMP_TOL = 1e-12

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> list[Problem]:
        p1 = ProblemConfig.load("P1")
        rng = np.random.default_rng([self.seed, 3])

        def sym(scale):
            m = rng.uniform(-scale, scale, size=(2, 2))
            return (m + m.T).astype(complex)

        grid = np.linspace(0.0, PI, 33)
        problems = []
        for k in range(self.PROBLEMS):
            # random directions, fixed sizes: every problem costs about the same
            coeffs = np.stack([sym(1.0), sym(0.3), sym(0.1)])
            peak = max(np.linalg.norm(coeffs[0] + coeffs[1] * x + coeffs[2] * x * x, 2) for x in grid)
            coeffs *= self.Q_SIZE / peak
            atom = sym(1.0)
            atom *= self.ATOM_SIZE / np.linalg.norm(atom, 2)
            x_atom = float(rng.uniform(0.4, 1.3) if k % 2 else rng.uniform(1.85, 2.75))
            q = bw.MatrixMeasure(
                dim=2,
                segments=(bw.Segment((0.0, PI), lambda x, c=coeffs: c[0] + c[1] * x + c[2] * x * x, degree=2),),
                atoms=((x_atom, atom),),
                name="q",
            )
            sysm = bw.SystemSpec(
                J=p1.system.J, q=q, w=p1.system.w, interval=p1.system.interval,
                tols=p1.system.tols, name=f"smooth{k}",
            )
            eng = bw.Engine(sysm, p1.boundary)
            bw.norm_zero_space(sysm, engine=eng)
            problems.append(Problem(f"smooth{k}", sysm, p1.boundary, eng, atom=x_atom))
        return problems

    def operations(self, problems):
        rng = np.random.default_rng([self.seed, 4])
        draws = _strata(rng, self.STRATA)
        i = 0
        while True:
            p = i % len(problems)
            lam = complex(-15.0 + 30.0 * next(draws), rng.choice((-1.0, 1.0)) * rng.uniform(0.25, 2.0))
            c = rng.normal(size=2) + 1j * rng.normal(size=2)
            xs = []
            while len(xs) < 5:
                x = rng.uniform(0.1, PI - 0.1)
                if abs(x - problems[p].atom) > 0.05:
                    xs.append(x)
            yield p, lam, bw.VectorFunction(fn=lambda x, c=c: c), sorted(xs)
            i += 1

    def run(self, problems, spec):
        p, lam, f, xs = spec
        prob = problems[p]
        res = bw.ResolventFunction(prob.sys, prob.bc, lam, f, engine=prob.eng)
        return res, [res(x) for x in xs]

    def check(self, problems, spec, out) -> bool:
        p, lam, f, xs = spec
        prob = problems[p]
        res, values = out
        J, H = prob.sys.J, self.HALF_WIDTH
        for x, u in zip(xs, values):
            window = [(x + H * t, weight / 2, u if t == 0.0 else res(x + H * t))
                      for t, weight in self.LOBATTO]
            flux = J @ (window[-1][2] - window[0][2]) / (2 * H)
            coupled = np.zeros_like(flux)
            source = np.zeros_like(flux)
            for y, weight, r in window:
                w, q = prob.sys.w.density_at(y), prob.sys.q.density_at(y)
                coupled = coupled + weight * ((q - lam * w) @ r)
                source = source + weight * (w @ f(y))
            scale = max(1.0, *(float(np.max(np.abs(v))) for v in (flux, coupled, source)))
            if float(np.max(np.abs(flux + coupled - source))) > self.DEFECT_TOL * scale:
                return False
        bm, bp = bw.jump_matrices(prob.sys, prob.atom, lam)
        left, right = res.left(prob.atom), res.right(prob.atom)
        drive = prob.sys.w.atom_at(prob.atom) @ f(prob.atom)
        resid = float(np.max(np.abs(bp @ right - bm @ left - drive)))
        scale = max(1.0, float(np.max(np.abs(left))), float(np.max(np.abs(right))))
        return resid <= self.JUMP_TOL * scale


WORKLOADS = {w.name: w for w in (Spectrum, Expansion, SmoothResolvent)}
