import numpy as np
import pytest

from conftest import J2, rotation
from test_magnus import assert_same_row
from blockweyl.assembly import jump_system, norm_zero_space
from blockweyl import propagation, spectral
from blockweyl.engine import Engine
from blockweyl.errors import StructuralError, TheoryViolationError
from blockweyl.measures import IntervalSpec, MatrixMeasure, Segment, integrate_bv
from blockweyl.propagation import VectorFunction, row_integrand, solve_ivp
from blockweyl.spectral import (
    ResolventFunction,
    atom_weight,
    eigen_scan,
    spectral_measure_model,
    stieltjes_inversion,
)
from blockweyl.system import BoundaryConditions, SystemSpec, jump_matrices
from blockweyl.weyl import WITNESS_TOL

PI = np.pi


# ---------------------------------------------------------------------------
# eigenvalue scan


def test_p1_eigenvalues_are_integers(p1, e1):
    points = eigen_scan(*p1, -5.5, 5.5, engine=e1)
    values = [p.value for p in points]
    assert len(values) == 11
    assert max(abs(v - round(v)) for v in values) < 1e-8
    assert all(p.multiplicity == 1 for p in points)
    # eigenvector coefficients: (0, +-1)/sqrt(pi)
    for p in points:
        eta = p.vectors[:, 0]
        assert abs(eta[0]) < 1e-8
        assert abs(abs(eta[1]) - 1 / np.sqrt(PI)) < 1e-8
        assert np.max(np.abs(p.weight - np.diag([0.0, 1 / PI]))) < 1e-8


def shooting_eigenvalues_p2(lo: float, hi: float, alpha: float = 2.0) -> list[float]:
    """Independent oracle: fixed-step RK4 shooting plus bisection.

    Integrates the free system from the left Dirichlet data, applies the
    explicit transfer at the interaction point, and finds sign changes of the
    first component at the right endpoint.
    """

    K = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def rk4_grid(lams, ys, x0, x1, steps=480):
        # ys has one column per spectral parameter
        h = (x1 - x0) / steps
        for _ in range(steps):
            k1 = lams * (K @ ys)
            k2 = lams * (K @ (ys + 0.5 * h * k1))
            k3 = lams * (K @ (ys + 0.5 * h * k2))
            k4 = lams * (K @ (ys + h * k3))
            ys = ys + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        return ys

    def endpoint(lams):
        lams = np.atleast_1d(np.asarray(lams, dtype=float))
        ys = np.tile(np.array([[0.0], [1.0]]), (1, len(lams)))
        ys = rk4_grid(lams, ys, 0.0, PI / 2)
        ys = np.array([[1.0, 0.0], [alpha, 1.0]]) @ ys
        return rk4_grid(lams, ys, PI / 2, PI)[0]

    grid = np.linspace(lo, hi, 801)
    vals = endpoint(grid)
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            roots.append(grid[i])
        elif vals[i] * vals[i + 1] < 0:
            a, b = grid[i], grid[i + 1]
            fa = vals[i]
            for _ in range(60):
                c = 0.5 * (a + b)
                fc = endpoint([c])[0]
                if fa * fc <= 0:
                    b = c
                else:
                    a, fa = c, fc
            roots.append(0.5 * (a + b))
    return roots


def test_p2_eigenvalues_match_shooting_oracle(p2, e2):
    points = eigen_scan(*p2, -5.0, 5.0, engine=e2)
    values = [p.value for p in points]
    oracle = shooting_eigenvalues_p2(-5.0, 5.0)
    assert len(values) == len(oracle) == 10
    assert max(abs(v - o) for v, o in zip(values, oracle)) < 1e-7
    # closed-form check: sin(pi lam) + 2 sin^2(pi lam / 2) = 0
    assert max(
        abs(np.sin(PI * v) + 2 * np.sin(PI * v / 2) ** 2) for v in values
    ) < 1e-7


def test_p3_and_p4_single_eigenvalues(p3, e3, p4, e4):
    pts3 = eigen_scan(*p3, -1.0, 5.0, engine=e3)
    assert len(pts3) == 1 and abs(pts3[0].value - 2.0) < 1e-9
    pts4 = eigen_scan(*p4, -3.0, 3.0, engine=e4)
    assert len(pts4) == 1 and abs(pts4[0].value + 1.0) < 1e-9
    # the eigenvalue coefficients live in the complement of the norm-zero space
    basis, proj = norm_zero_space(p4[0], engine=e4)
    eta = pts4[0].vectors[:, 0]
    assert np.max(np.abs(proj @ eta - eta)) < 1e-10


def test_p1_roots_in_off_grid_windows_are_the_integers(p1):
    # one root per window, away from the grid nodes: found by the Chebyshev
    # interpolant of its bracket, to roundoff
    eng = Engine(*p1)
    rng = np.random.default_rng(3)
    for k in range(-80, 81):
        d = rng.uniform(0.1, 0.9)
        points = eigen_scan(*p1, k + d, k + 1 + d, engine=eng)
        assert [p.multiplicity for p in points] == [1]
        assert abs(points[0].value - (k + 1)) <= 1e-15 * max(1.0, abs(k + 1))


def test_coarse_grid_halves_brackets_and_finds_the_same_roots(p1, p2, monkeypatch):
    # the interpolant over a cell of width 0.9 (0.45 on P2, whose roots come in
    # pairs 0.5 apart) is not at roundoff, so brackets are halved and resampled
    stacked = []
    constraints = spectral._solution_constraints

    def counted(sys, bc, s, eng):
        stacked.append(np.ndim(s) > 0)
        return constraints(sys, bc, s, eng)

    monkeypatch.setattr(spectral, "_solution_constraints", counted)
    for problem, lo, hi, step in ((p1, -80.3, 80.3, 0.9), (p2, -40.3, 40.3, 0.45)):
        fine = [p.value for p in eigen_scan(*problem, lo, hi, engine=Engine(*problem))]
        stacked.clear()
        coarse = [p.value for p in eigen_scan(*problem, lo, hi, engine=Engine(*problem), grid_step=step)]
        assert sum(stacked) > 2  # the grid, the brackets, then halved brackets
        assert len(coarse) == len(fine) > 80
        assert max(abs(a - b) for a, b in zip(coarse, fine)) < 1e-12


# ---------------------------------------------------------------------------
# atom weights and Stieltjes inversion


def test_atom_weights_match_eigenfunction_weights(p1, e1):
    for s in (0.0, 1.0, -1.0, 2.0, -2.0):
        W, diag = atom_weight(*p1, s, engine=e1)
        assert diag["converged"]
        assert np.max(np.abs(W - np.diag([0.0, 1 / PI]))) < 1e-4


def test_atom_weight_vanishes_off_spectrum(p1, e1):
    W, _ = atom_weight(*p1, 0.5, engine=e1)
    assert np.max(np.abs(W)) < 1e-6


def test_negative_atom_weight_is_a_theory_violation(p1, monkeypatch):
    # M(s + i eps) = -i I / eps at every offset: -i eps M is -I exactly, an
    # extrapolated weight far below the allowance, which no Herglotz M gives
    class Sample:
        def __init__(self, lam):
            self.m = -1j * np.eye(2) / lam.imag

    monkeypatch.setattr(spectral, "m_function_many", lambda sys, bc, lams, *, engine: [Sample(lam) for lam in lams])
    with pytest.raises(TheoryViolationError, match="not Herglotz"):
        atom_weight(*p1, 1.0, engine=Engine(*p1))


def test_stieltjes_inversion_window(p1, e1):
    T, spread = stieltjes_inversion(*p1, 0.5, 1.5, engine=e1)
    assert np.max(np.abs(T - np.diag([0.0, 1 / PI]))) < 1e-4
    assert spread < 1e-4
    T2, _ = stieltjes_inversion(*p1, 0.2, 0.8, engine=e1)
    assert np.max(np.abs(T2)) < 1e-4
    T3, _ = stieltjes_inversion(*p1, -1.5, 1.5, engine=e1)
    assert np.max(np.abs(T3 - np.diag([0.0, 3 / PI]))) < 1e-4


def test_stieltjes_guards_endpoints_near_atoms(p1, e1):
    with pytest.raises(StructuralError):
        stieltjes_inversion(*p1, 1.0 - 1e-7, 1.5, engine=e1)
    with pytest.raises(StructuralError):
        stieltjes_inversion(*p1, 1.5, 1.2, engine=e1)


def test_empty_eps_schedule_is_rejected(p1, e1):
    for refine_at in (None, [1.0]):
        with pytest.raises(ValueError, match="empty eps schedule"):
            stieltjes_inversion(*p1, 0.5, 1.5, (), engine=e1, refine_at=refine_at)
    with pytest.raises(ValueError, match="empty eps schedule"):
        atom_weight(*p1, 1.0, (), engine=e1)


@pytest.fixture
def scalar_weyl(monkeypatch):
    """Route the spectral module's batched Weyl calls through one scalar call per parameter."""
    from blockweyl.weyl import m_function

    def one_by_one(sys, bc, lams, *, engine):
        return [m_function(sys, bc, lam, engine=engine, with_witness=False) for lam in np.ravel(lams)]

    return lambda: monkeypatch.setattr(spectral, "m_function_many", one_by_one)


def test_stieltjes_integrand_batches_match_scalar_samples(p1, scalar_weyl):
    batched = stieltjes_inversion(*p1, 0.5, 1.5, engine=Engine(*p1))
    scalar_weyl()
    scalar = stieltjes_inversion(*p1, 0.5, 1.5, engine=Engine(*p1))
    assert np.array_equal(batched[0], scalar[0]) and batched[1] == scalar[1]


def test_singular_path_samples_match_scalar_samples(scalar_weyl):
    from test_transform import whole_line_point_interaction

    # the density grid coincides with the 801 samples that locate the peaks
    sysm, bc, eng = whole_line_point_interaction()
    batched = spectral_measure_model(sysm, bc, (-2.0, 2.0), engine=eng, density_samples=801)
    scalar_weyl()
    sysm, bc, eng = whole_line_point_interaction()
    scalar = spectral_measure_model(sysm, bc, (-2.0, 2.0), engine=eng, density_samples=801)
    assert np.array_equal(batched.density_values, scalar.density_values)
    assert [a.s for a in batched.atoms] == [a.s for a in scalar.atoms] == [-1.0]
    assert np.array_equal(batched.atoms[0].weight, scalar.atoms[0].weight)
    assert np.array_equal(batched.const_b, scalar.const_b)


def test_density_samples_match_scalar_samples(p2, scalar_weyl):
    batched = spectral_measure_model(*p2, (0.2, 1.8), engine=Engine(*p2), density_samples=41)
    scalar_weyl()
    scalar = spectral_measure_model(*p2, (0.2, 1.8), engine=Engine(*p2), density_samples=41)
    assert batched.density_values.shape == (41, 2, 2)
    assert np.array_equal(batched.density_values, scalar.density_values)
    assert np.array_equal(batched.atoms[0].weight, scalar.atoms[0].weight)


def test_double_root_is_found_by_the_singular_value_dip(monkeypatch):
    # two decoupled strings with weights 1 and c and Dirichlet rows on their
    # first components: eigenvalues k and k/c, and 0 twice.  At the double
    # root the determinant keeps its sign, so only a dip of the smallest
    # singular value, refined by bounded minimization, finds it
    c = 1.05
    w = MatrixMeasure(dim=4, segments=(Segment((0.0, PI), lambda x: np.diag([1.0, 1.0, c, c]), degree=0),))
    sysm = SystemSpec(J=np.kron(np.eye(2), J2), q=MatrixMeasure.zero(4), w=w, interval=(0.0, PI))
    e, z = np.eye(4), np.zeros(4)
    bc = BoundaryConditions(Ga=np.array([e[0], e[2], z, z]), Gb=np.array([z, z, e[0], e[2]]))
    minima = []
    minimize = spectral.minimize_scalar

    def recorded(*args, **kwargs):
        res = minimize(*args, **kwargs)
        minima.append(float(res.x))
        return res

    monkeypatch.setattr(spectral, "minimize_scalar", recorded)
    points = eigen_scan(sysm, bc, -2.97, 3.03)
    values = np.array([p.value for p in points for _ in range(p.multiplicity)])
    expected = np.sort([float(k) for k in range(-2, 4)] + [k / c for k in range(-3, 4)])
    assert len(values) == 13
    assert np.max(np.abs(values - expected)) <= 1e-12
    assert [p.multiplicity for p in points if abs(p.value) < 1e-12] == [2]
    assert [x for x in minima if abs(x) < 1e-12] == [p.value for p in points if p.multiplicity == 2]


# ---------------------------------------------------------------------------
# resolvent


def smooth_p1(p1):
    """P1 with a quadratic ``q`` density and a ``q`` atom: every stretch takes a Magnus mesh."""
    sysm, bc = p1
    c0, c1, c2 = np.array([[0.3, 0.1], [0.1, -0.2]]), np.array([[0.0, 0.05], [0.05, 0.1]]), 0.02 * np.eye(2)
    q = MatrixMeasure(dim=2, segments=(Segment((0.0, PI), lambda x: c0 + c1 * x + c2 * x * x, degree=2),),
                      atoms=((1.1, np.diag([0.5, -0.25])),))
    return SystemSpec(J=sysm.J, q=q, w=sysm.w, interval=sysm.interval, tols=sysm.tols), bc


def test_conjugate_row_of_a_resolvent_is_built_independently(p1, monkeypatch):
    # a resolvent builds its rows at lam and conj(lam) together; corrupting
    # the coefficients of lam alone leaves the conj(lam) row bitwise as a
    # build of its own gives it, and the symmetry witness sees the corruption
    sysm, bc = smooth_p1(p1)
    lam = 2.5 + 0.75j
    f = VectorFunction(lambda x: np.array([1.0, 0.5]))
    clean = Engine(sysm, bc)
    assert ResolventFunction(sysm, bc, lam, f, engine=clean).weyl.witness_norm <= WITNESS_TOL
    assemble = propagation._StretchCoefficients.assemble

    def corrupted(self, one, q, w, fs):
        A = assemble(self, one, q, w, fs)
        return A * (1.0 + 1e-4) if one == lam else A

    monkeypatch.setattr(propagation._StretchCoefficients, "assemble", corrupted)
    eng = Engine(sysm, bc)
    with pytest.warns(UserWarning, match="symmetry witness"):
        R = ResolventFunction(sysm, bc, lam, f, engine=eng)
    assert_same_row(eng.row(np.conj(lam)), clean.row(np.conj(lam)))
    assert not np.array_equal(R.row.fundamentals[0].left_values[-1], clean.row(lam).fundamentals[0].left_values[-1])
    assert R.weyl.witness_norm > WITNESS_TOL


def test_resolvent_satisfies_equation_and_bcs(p1, e1):
    sysm, bc = p1
    lam = 1j
    f = VectorFunction(lambda x: np.array([1.0, 0.0]))
    R = ResolventFunction(sysm, bc, lam, f, engine=e1)
    h = 1e-5
    for x in np.linspace(0.3, 2.8, 9):
        du = (R.balanced(x + h) - R.balanced(x - h)) / (2 * h)
        resid = J2 @ du - lam * R.balanced(x) - np.array([1.0, 0.0])
        assert np.max(np.abs(resid)) < 1e-7
    assert abs(R.right(0.0)[0]) < 1e-10
    assert abs(R.left(PI)[0]) < 1e-10


def test_resolvent_matches_shooting_bvp(p1, e1):
    sysm, bc = p1
    lam = 1j
    f = VectorFunction(lambda x: np.array([1.0, 0.0]))
    R = ResolventFunction(sysm, bc, lam, f, engine=e1)
    hom = solve_ivp(sysm, 0, lam, 0.0, np.array([0.0, 1.0]))
    par = solve_ivp(sysm, 0, lam, 0.0, np.array([0.0, 0.0]), f=f)
    c = -par.balanced(PI)[0] / hom.balanced(PI)[0]
    for x in (0.2, 0.9, 1.7, 2.8):
        shoot = par.balanced(x) + c * hom.balanced(x)
        assert np.max(np.abs(shoot - R.balanced(x))) < 1e-7


def test_resolvent_below_support_specialization(p1, e1):
    sysm, bc = p1
    lam = 1j
    f = VectorFunction(lambda x: np.array([1.0, 0.0]), support=(1.5, 2.5))
    R = ResolventFunction(sysm, bc, lam, f, engine=e1)
    Jinv = np.linalg.inv(J2)
    for x in (0.3, 1.0):
        expect = rotation(lam * x) @ (R.weyl.m - 0.5 * Jinv) @ R.transform
        assert np.max(np.abs(R.balanced(x) - expect)) < 1e-10


def test_resolvent_identity(p1, e1):
    sysm, bc = p1
    f = VectorFunction(lambda x: np.array([1.0, 0.0]))
    lam, mu = 1j, 0.5 + 2j
    Rl = ResolventFunction(sysm, bc, lam, f, engine=e1)
    Rm = ResolventFunction(sysm, bc, mu, f, engine=e1)
    nested = ResolventFunction(sysm, bc, lam, Rm, engine=e1)
    for x in (0.4, 1.3, 2.6):
        resid = Rl.balanced(x) - Rm.balanced(x) - (lam - mu) * nested.balanced(x)
        assert np.max(np.abs(resid)) < 1e-6


@pytest.mark.parametrize("name", ["p2", "p3", "p4"])
def test_resolvent_is_a_row_combination_plus_a_drive_solution(name, request):
    # P3 has a w atom at 1 and P4 one at its partition point 0: a miscounted
    # atom misses the transform by O(1)
    sysm, bc = request.getfixturevalue(name)
    eng = request.getfixturevalue("e" + name[1])
    a, b = sysm.interval
    f = VectorFunction(lambda x: np.array([1.0 + x, np.cos(x)]))
    points = sysm.atom_positions() + [a + 0.3 * (b - a), a + 0.71 * (b - a)]
    zero = np.zeros(sysm.dim, dtype=complex)
    for lam in (1j, 2.5 + 0.3j):
        R = ResolventFunction(sysm, bc, lam, f, engine=eng)
        direct = integrate_bv(
            row_integrand(eng.row(np.conj(lam)), f), sysm.w, IntervalSpec(a, b), tols=sysm.tols
        )
        assert np.max(np.abs(R.transform - direct)) <= 1e-9 * max(1.0, np.max(np.abs(direct)))

        # u_p: on each block the solution of the driven equation vanishing at the anchor
        drives = [solve_ivp(sysm, j, lam, x0, zero, f, sing=eng.sing) for j, x0 in enumerate(eng.anchors)]

        def particular(x, side):
            for u in drives:
                if u.lo < x < u.hi or x == (u.hi if side == "left" else u.lo):
                    return getattr(u, side)(x)

        samples = [(x, side) for x in points for side in ("left", "right")]
        rows = np.concatenate([eng.row(lam).value(x, side) for x, side in samples])
        rest = np.concatenate([getattr(R, side)(x) - particular(x, side) for x, side in samples])
        c = np.linalg.lstsq(rows, rest, rcond=None)[0]
        assert np.max(np.abs(rows @ c - rest)) <= 1e-9 * max(1.0, np.max(np.abs(rest)))


@pytest.mark.parametrize("name", ["p2", "p3", "p4"])
def test_resolvent_jump_conditions_at_atoms_and_partition_points(name, request):
    sysm, bc = request.getfixturevalue(name)
    eng = request.getfixturevalue("e" + name[1])
    f = VectorFunction(lambda x: np.array([1.0 + x, np.cos(x)]))
    for lam in (1j, 2.5 + 0.3j):
        R = ResolventFunction(sysm, bc, lam, f, engine=eng)
        for x in sysm.atom_positions():
            left, right = R.left(x), R.right(x)
            bm, bp = jump_matrices(sysm, x, lam)
            scale = max(1.0, np.max(np.abs(left)), np.max(np.abs(right)))
            resid = bp @ right - bm @ left - sysm.w.atom_at(x) @ f(x)
            assert np.max(np.abs(resid)) <= 1e-12 * scale
            assert np.max(np.abs(R.balanced(x) - 0.5 * (left + right))) <= 1e-12 * scale


def test_resolvent_transform_identity(p1, e1):
    # the transform of the resolvent divides by (t - lam), in the weighted metric
    from blockweyl.transform import forward_transform

    sysm, bc = p1
    model = spectral_measure_model(sysm, bc, (-2.5, 2.5), engine=e1)
    g = VectorFunction(lambda x: np.array([1.0, 0.0]))
    u = ResolventFunction(sysm, bc, 1j, g, engine=e1)
    fu = forward_transform(sysm, bc, model, u, engine=e1)
    fg = forward_transform(sysm, bc, model, g, engine=e1)
    worst = 0.0
    for atom, vu, vg in zip(model.atoms, fu.values, fg.values):
        d = vu - vg / (atom.s - 1j)
        worst = max(worst, float(np.sqrt(np.real(d.conj() @ atom.weight @ d))))
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# spectral measure model


def test_model_p1_traces(p1, e1):
    model = spectral_measure_model(*p1, (-2.5, 2.5), engine=e1)
    assert [a.s for a in model.atoms] == [-2.0, -1.0, 0.0, 1.0, 2.0]
    for a in model.atoms:
        assert abs(np.trace(a.weight).real - 1 / PI) < 1e-8
        assert a.inversion_gap < 1e-4
    assert model.verified


def test_model_p4_atom_annihilated_by_junction(p4, e4):
    sysm, bc = p4
    model = spectral_measure_model(sysm, bc, (-3.0, 3.0), engine=e4)
    assert len(model.atoms) == 1
    atom = model.atoms[0]
    assert abs(atom.s + 1.0) < 1e-9
    defect, _ = jump_system(sysm, atom.s, engine=e4)
    W = atom.weight
    assert np.max(np.abs(defect @ W)) < 1e-6 * np.max(np.abs(W))
    _, proj = norm_zero_space(sysm, engine=e4)
    assert np.max(np.abs((np.eye(4) - proj) @ W)) < 1e-8
    assert np.max(np.abs(proj @ W @ proj - W)) < 1e-10
    # PSD sanity
    assert np.min(np.linalg.eigvalsh(0.5 * (W + W.conj().T))) > -1e-10


def test_model_empty_range(p1, e1):
    model = spectral_measure_model(*p1, (0.2, 0.2), engine=e1)
    assert model.atoms == []


def test_model_cross_validation_rejects_coarse_offsets(p1, e1):
    with pytest.raises(TheoryViolationError):
        spectral_measure_model(*p1, (0.5, 1.5), engine=e1, eps_schedule=(0.9, 0.7))


def test_model_mass_left_closed_convention(p1, e1):
    model = spectral_measure_model(*p1, (-2.5, 2.5), engine=e1)
    m1 = model.mass(1.0, 2.0)  # includes the atom at 1, not the one at 2
    assert np.max(np.abs(m1 - np.diag([0.0, 1 / PI]))) < 1e-8
