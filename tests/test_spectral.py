import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import J2, rotation
from test_magnus import assert_same_row
from numpy.polynomial.chebyshev import chebroots

from blockweyl.assembly import jump_system, norm_zero_space
from blockweyl.config import ProblemConfig
from blockweyl import propagation, spectral
from blockweyl.engine import Engine
from blockweyl.errors import StructuralError, TheoryViolationError
from blockweyl.measures import IntervalSpec, MatrixMeasure, Segment, integrate_bv
from blockweyl.propagation import SolutionRow, VectorFunction, row_integrand, solution_row, solve_ivp
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


def test_duplicate_candidates_are_accepted_once(p1):
    # the range starts on the eigenvalue 1: the determinant finds it and the
    # range end adds it again, and the second candidate is skipped
    points = eigen_scan(*p1, 1.0, 2.5, engine=Engine(*p1))
    assert [(p.value, p.multiplicity) for p in points] == [(1.0, 1), (2.0, 1)]


def test_candidates_whose_singular_value_does_not_collapse_are_rejected(p1):
    assert eigen_scan(*p1, 0.5, 1.5, engine=Engine(*p1), sigma_accept=1e-300) == []


def test_coarse_grid_halves_brackets_and_finds_the_same_roots(p1, p2, monkeypatch):
    # the interpolant over a cell of width 0.9 (0.45 on P2, whose roots come in
    # pairs 0.5 apart) is not at roundoff, so brackets are halved and resampled
    stacked = []
    assemble = spectral.assemble_blocks

    def counted(sys, bc, s, **kwargs):
        stacked.append(np.ndim(s) > 0)
        return assemble(sys, bc, s, **kwargs)

    monkeypatch.setattr(spectral, "assemble_blocks", counted)
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


def two_channel(c):
    """Two decoupled strings with weights 1 and ``c`` and Dirichlet rows on
    their first components: eigenvalues ``k`` and ``k/c``, and 0 twice."""
    w = MatrixMeasure(dim=4, segments=(Segment((0.0, PI), lambda x: np.diag([1.0, 1.0, c, c]), degree=0),))
    sysm = SystemSpec(J=np.kron(np.eye(2), J2), q=MatrixMeasure.zero(4), w=w, interval=(0.0, PI))
    e, z = np.eye(4), np.zeros(4)
    return sysm, BoundaryConditions(Ga=np.array([e[0], e[2], z, z]), Gb=np.array([z, z, e[0], e[2]]))


def two_channel_eigenvalues(c, lo, hi):
    ks = range(int(np.floor(lo * c)) - 1, int(np.ceil(hi * c)) + 2)
    return np.sort([v for k in ks for v in (float(k), k / c) if lo <= v <= hi])


def complex_channels(cs):
    """``J = i I``, ``w = diag(cs)``, ``u(pi) = e^{0.3i} u(0)``: eigenvalues
    ``(0.3/pi + 2k)/c``; the determinant is never real, so only dips see them."""
    n = len(cs)
    w = MatrixMeasure(dim=n, segments=(Segment((0.0, PI), lambda x: np.diag(cs).astype(float), degree=0),))
    sysm = SystemSpec(J=1j * np.eye(n), q=MatrixMeasure.zero(n), w=w, interval=(0.0, PI))
    return sysm, BoundaryConditions(Ga=np.eye(n, dtype=complex), Gb=np.exp(0.3j) * np.eye(n))


def complex_eigenvalues(cs, lo, hi):
    values = np.sort([(0.3 / PI + 2 * k) / c for c in cs for k in range(-8, 9)])
    return values[(values >= lo) & (values <= hi)]


def assert_finds_every_eigenvalue(points, expected):
    values = np.array([p.value for p in points for _ in range(p.multiplicity)])
    assert len(values) == len(expected)
    assert len(values) == 0 or np.max(np.abs(values - expected)) <= 1e-12


def test_double_root_is_found_by_the_singular_value_dip(monkeypatch):
    # at the double root 0 the determinant keeps its sign, so only a dip of
    # the smallest singular value sees it: its cells are squared by the dip's
    # left singular vectors, and the root is the one of the derivative of a
    # trusted interpolant
    c = 1.05
    cells = []
    refine = spectral._bracket_roots

    def recorded(det_many, given):
        cells.extend(given)
        return refine(det_many, given)

    monkeypatch.setattr(spectral, "_bracket_roots", recorded)
    points = eigen_scan(*two_channel(c), -2.97, 3.03)
    values = np.array([p.value for p in points for _ in range(p.multiplicity)])
    expected = np.sort([float(k) for k in range(-2, 4)] + [k / c for k in range(-3, 4)])
    assert len(values) == 13
    assert np.max(np.abs(values - expected)) <= 1e-12
    assert [p.multiplicity for p in points if abs(p.value) < 1e-12] == [2]
    assert [u is not None for a, b, _, _, u in cells if a <= 0.0 <= b] == [True]


@pytest.mark.parametrize("window", [(-3.0, 3.0), (-2.97, 3.03), (0.13, 6.13), (-10.4, 10.4)])
@pytest.mark.parametrize("c", [1.001, 1.003, 1.005, 1.01, 1.02, 1.05])
def test_pairs_in_one_cell_are_both_found(c, window):
    # k and k/c often share a grid cell, where the determinant keeps its sign
    assert_finds_every_eigenvalue(eigen_scan(*two_channel(c), *window), two_channel_eigenvalues(c, *window))


@pytest.mark.parametrize("cs, window", [((1.0, c), w) for c in (1.001, 1.003, 1.01, 1.05)
                                        for w in ((-3.0, 3.0), (-10.4, 10.4))] + [((1.0,), (-10.4, 10.4))])
def test_complex_determinant_roots_are_found_by_dips(cs, window):
    assert_finds_every_eigenvalue(eigen_scan(*complex_channels(cs), *window), complex_eigenvalues(cs, *window))


@settings(max_examples=12, deadline=None)
@given(st.floats(1.001, 1.05), st.floats(-10.0, 6.0), st.floats(0.5, 12.0))
@example(c=1.01, lo=-3.16, width=6.17)  # the pair 3/c, 3 in the last cell, a dip at the window end
def test_two_channel_scan_finds_every_eigenvalue(c, lo, width):
    hi = lo + width
    near = two_channel_eigenvalues(c, lo - 1.0, hi + 1.0)
    assume(np.min(np.abs(near[:, None] - [lo, hi])) > 1e-6)  # no eigenvalue on a window end
    assert_finds_every_eigenvalue(eigen_scan(*two_channel(c), lo, hi), two_channel_eigenvalues(c, lo, hi))


@settings(max_examples=8, deadline=None)
@given(st.floats(1.001, 1.1), st.floats(-10.0, 6.0), st.floats(0.5, 12.0))
@example(c=1.0667, lo=1.29, width=1.62)  # two dips two grid steps apart, neither explained
def test_complex_scan_finds_every_eigenvalue(c, lo, width):
    hi = lo + width
    near = complex_eigenvalues((1.0, c), lo - 2.5, hi + 2.5)
    assume(np.min(np.abs(near[:, None] - [lo, hi])) > 1e-6)
    assert_finds_every_eigenvalue(eigen_scan(*complex_channels((1.0, c)), lo, hi), complex_eigenvalues((1.0, c), lo, hi))


# ---------------------------------------------------------------------------
# the batched acceptance and atom weights against a loop


def accept_one_by_one(candidates, reduced, basis_p, eng, sigma_accept, scale):
    """The acceptance pass as a loop: one assembly, at the candidate's cached
    row, and one SVD per candidate the loop reaches."""
    points = []
    for s in candidates:
        if points and abs(s - points[-1].value) < 1e-7 * (1.0 + abs(s)):
            continue
        _, sv, vh = np.linalg.svd(reduced(s))
        top = sv[0] if sv.size else 1.0
        if sv.size and sv[-1] > sigma_accept * max(top, scale):
            continue
        vecs = spectral._gram_normalized_kernel(s, sv, vh, basis_p, eng)
        if vecs.shape[1]:
            points.append(spectral.EigenPoint(value=s, multiplicity=vecs.shape[1], vectors=vecs))
    return points


def batched_model_cases():
    def shipped(name, window):
        cfg = ProblemConfig.load(name)
        return lambda: (cfg.system, cfg.boundary, Engine(cfg.system, cfg.boundary), window, dict(eps_schedule=cfg.eps_schedule))

    def built(make, window, **options):
        def fresh():
            sysm, bc = make()
            return sysm, bc, Engine(sysm, bc), window, options
        return fresh

    def singular():
        from test_transform import whole_line_point_interaction

        sysm, bc, eng = whole_line_point_interaction()
        return sysm, bc, eng, (-2.0, 2.0), dict(density_samples=801)

    return {
        **{name: shipped(name, (-80.5, 80.5)) for name in ("P1", "P2", "P3", "P4")},
        "two_channel": built(lambda: two_channel(1.01), (-2.97, 3.03)),
        "complex": built(lambda: complex_channels((1.0, 1.01)), (-3.0, 3.0)),
        "singular": singular,
    }


def model_fields(model):
    return [(a.s, a.weight, a.vectors, a.multiplicity, a.inversion_gap) for a in model.atoms]


def assert_same_fields(got, want):
    assert len(got) == len(want)
    for one, other in zip(got, want):
        for x, y in zip(one, other):
            if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
                assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
            else:
                assert type(x) is type(y) and x == y


@pytest.mark.parametrize("case", ["P1", "P2", "P3", "P4", "two_channel", "complex", "singular"])
def test_batched_model_is_bitwise_the_loop(case, scalar_weyl, monkeypatch):
    # one stacked acceptance pass and one Weyl call for all atom weights give
    # the atoms of a loop over the candidates and of one Weyl call per sample
    make = batched_model_cases()[case]
    sysm, bc, eng, window, options = make()
    batched = spectral_measure_model(sysm, bc, window, engine=eng, **options)
    scalar_weyl()
    monkeypatch.setattr(spectral, "_accept", accept_one_by_one)
    sysm, bc, eng, window, options = make()
    scalar = spectral_measure_model(sysm, bc, window, engine=eng, **options)
    assert len(batched.atoms) >= 1
    assert_same_fields(model_fields(batched), model_fields(scalar))


def test_model_of_161_atoms_makes_one_acceptance_assembly_and_one_weyl_build(p1, monkeypatch):
    from blockweyl import engine as engine_module, weyl

    def recording(fn, at, lams):
        """``fn``, recording the spectral parameters of each call, its positional argument ``at``."""
        def recorded(*args, **kwargs):
            lams.append(np.asarray(args[at]))
            return fn(*args, **kwargs)
        return recorded

    scan, samples, built = [], [], []
    monkeypatch.setattr(spectral, "assemble_blocks", recording(spectral.assemble_blocks, 2, scan))
    monkeypatch.setattr(weyl, "assemble_blocks", recording(weyl.assemble_blocks, 2, samples))
    monkeypatch.setattr(engine_module, "solution_row", recording(engine_module.solution_row, 1, built))
    model = spectral_measure_model(*p1, (-80.3, 80.3), engine=Engine(*p1))
    values = np.array([a.s for a in model.atoms])
    assert len(values) == 161
    # the grid, one round of brackets, then every candidate at once (was one
    # assembly per candidate, 161)
    assert [np.shape(lam) for lam in scan[2:]] == [(161,)] and np.array_equal(scan[2], values)
    # every offset of every atom in one stacked build (was one per atom, 161),
    # then the sample at i for the Nevanlinna constants
    assert [np.shape(lam) for lam in samples] == [(3 * 161,), ()]
    assert np.array_equal(samples[0].real, np.repeat(values, 3))
    # the Gram matrices find the acceptance rows in the engine (the loop made
    # 325 row builds: 161 acceptance rows and 161 offset triples among them)
    assert len(built) == 6


def test_model_raises_for_the_first_failing_atom_as_the_loop_does(p1, monkeypatch):
    # a Weyl failure at the atom 1 makes the batched call raise; each atom
    # then samples its own offsets, so a disagreement at an earlier atom, or
    # else the failure at 1, is raised, as by a loop over the atoms
    sample = spectral.m_function_many

    def failing(sys, bc, lams, *, engine):
        if any(complex(lam).real == 1.0 for lam in lams):
            raise TheoryViolationError("no sample at 1")
        return sample(sys, bc, lams, engine=engine)

    monkeypatch.setattr(spectral, "m_function_many", failing)
    with pytest.raises(TheoryViolationError, match="no sample at 1"):
        spectral_measure_model(*p1, (-2.5, 2.5), engine=Engine(*p1))
    with pytest.raises(TheoryViolationError, match=r"disagree at s=-2\.0 "):
        spectral_measure_model(*p1, (-2.5, 2.5), engine=Engine(*p1), cross_tol=0.0)


def test_colleague_roots_are_bitwise_those_of_chebroots():
    rng = np.random.default_rng(5)
    for k in range(60):
        coeffs = rng.normal(size=(k % 7, spectral.CHEB_NODES)) * 10.0 ** rng.uniform(-6, 6, size=(k % 7, 1))
        if k % 2:
            coeffs = coeffs + 1j * rng.normal(size=coeffs.shape)
        if k % 7 and k % 3 == 0:
            coeffs[0, -1] = 0.0  # trimmed by chebroots to a lower degree
        for got, c in zip(spectral._colleague_roots(coeffs), coeffs):
            want = chebroots(c)
            assert got.shape == want.shape and np.array_equal(got, want)


def test_range_basis_of_the_scan_is_memoized(p1, monkeypatch):
    calls = []
    basis = spectral._range_basis
    monkeypatch.setattr(spectral, "_range_basis", lambda proj: calls.append(1) or basis(proj))
    eng = Engine(*p1)
    first = eigen_scan(*p1, 0.5, 1.5, engine=eng)
    again = eigen_scan(*p1, 1.5, 2.5, engine=eng)
    assert len(calls) == 1 and [p.value for p in first + again] == [1.0, 2.0]


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


@pytest.mark.parametrize("support", [None, (0.0, 1.7)], ids=["no-breakpoints", "support"])
def test_rows_of_a_resolvent_are_the_rows_built_alone(p1, support):
    # the drive rides on the steps of the row at lam; the rows, stored by the
    # engine, are bitwise the rows built alone, and so is the drive row, built
    # with its rows or after them
    sysm, bc = smooth_p1(p1)
    lam = 2.5 + 0.75j
    f = VectorFunction(lambda x: np.array([1.0, 0.5 * x]), support=support)
    eng = Engine(sysm, bc)
    R = ResolventFunction(sysm, bc, lam, f, engine=eng)
    for one in (lam, np.conj(lam)):
        assert_same_row(eng.row(one), solution_row(sysm, one))
    zero = np.zeros((2, 1))
    alone = SolutionRow(sysm, [solve_ivp(sysm, j, lam, x0, zero, f, sing=eng.sing) for j, x0 in enumerate(eng.anchors)])
    assert_same_row(R.drives, alone)
    assert_same_row(ResolventFunction(sysm, bc, lam, f, engine=eng).drives, alone)  # its rows cached
    # the row and the drive read together, bitwise as each alone
    assert (R._paired is None) == (support is not None)
    xs = np.sort(np.concatenate([np.linspace(0.05, PI - 0.05, 23), [1.1, 1.7]]))
    for side in ("left", "right", "balanced"):
        apart = R.row.many(xs, side) @ R.coeffs + R.drives.many(xs, side).sum(-1)
        assert np.array_equal(R.many(xs, side), apart)


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
