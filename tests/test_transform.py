import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import J2, assert_sides_are_batches_of_one, rotation
from test_spectral import smooth_p1
from blockweyl import propagation, quadrature
from blockweyl.config import ProblemConfig
from blockweyl.engine import Engine
from blockweyl.errors import AccuracyError
from blockweyl.measures import IntervalSpec, MatrixMeasure, Segment, integrate_bv
from blockweyl.propagation import ArrayForm, SolutionRow, VectorFunction, forward_transform_compact, row_integrand
from blockweyl.spectral import ResolventFunction, SpectralMeasureModel, eigen_scan, spectral_measure_model
from blockweyl.system import EndpointSpec, SystemSpec
from blockweyl.transform import (
    TauVector,
    eigen_projection,
    forward_transform,
    inverse_transform,
    multiplication_check,
    parseval_check,
    w_inner,
    w_norm,
)

PI = np.pi


@pytest.fixture(scope="module")
def model1(p1, e1):
    return spectral_measure_model(*p1, (-3.5, 3.5), engine=e1)


@pytest.fixture(scope="module")
def model4(p4, e4):
    return spectral_measure_model(*p4, (-3.0, 3.0), engine=e4)


def const_f():
    return VectorFunction(lambda x: np.array([1.0, 0.0]))


def test_forward_values_on_support(p1, e1, model1):
    fhat = forward_transform(*p1, model1, const_f(), engine=e1)
    for atom, v in zip(model1.atoms, fhat.values):
        k = round(atom.s)
        expect = np.array([PI, 0.0]) if k == 0 else np.array([0.0, (1 - (-1) ** k) / k])
        assert np.max(np.abs(v - expect)) < 1e-11


def test_kernel_function_transforms_to_zero(p4, e4, model4):
    sysm, bc = p4
    # a norm-zero global solution: piecewise constants (1,1) then (-1,1)
    u0 = VectorFunction(
        lambda x: np.array([1.0, 1.0]) if x < 0 else (np.array([-1.0, 1.0]) if x > 0 else np.array([0.0, 1.0])),
        breakpoints=(0.0,),
    )
    fhat = forward_transform(sysm, bc, model4, u0, engine=e4)
    assert np.max(np.abs(fhat.values)) < 1e-12
    assert fhat.norm < 1e-12


def test_zero_function_transforms_to_zero(p1, e1, model1):
    zero = VectorFunction(lambda x: np.zeros(2))
    fhat = forward_transform(*p1, model1, zero, engine=e1)
    assert np.max(np.abs(fhat.values)) == 0.0


def test_inverse_of_point_mass_is_eigen_solution(p1, e1, model1):
    idx = [i for i, a in enumerate(model1.atoms) if a.s == 1.0][0]
    values = np.zeros((len(model1.atoms), 2), dtype=complex)
    values[idx] = np.array([0.3, 2.0])
    ghat = TauVector(model1, values)
    synth = inverse_transform(p1[0], model1, ghat, engine=e1)
    # result is U(., 1) tau({1}) ghat(1) = (2/pi) (sin x, cos x)
    for x in (0.3, 1.4, 2.2):
        expect = rotation(1.0 * x) @ np.diag([0.0, 1 / PI]) @ values[idx]
        assert np.max(np.abs(synth(x) - expect)) < 1e-10


def test_inverse_of_zero(p1, e1, model1):
    ghat = TauVector(model1, np.zeros((len(model1.atoms), 2), dtype=complex))
    synth = inverse_transform(p1[0], model1, ghat, engine=e1)
    assert np.max(np.abs(synth(1.0))) == 0.0


def test_round_trip_recovers_eigenfunction(p1, e1, model1):
    sysm, bc = p1
    eta = [a for a in model1.atoms if a.s == 1.0][0].vectors[:, 0]
    row = e1.row(1.0 + 0j)
    u1 = VectorFunction(lambda x: row.balanced(x) @ eta)
    fhat = forward_transform(sysm, bc, model1, u1, engine=e1)
    synth = inverse_transform(sysm, model1, fhat, engine=e1)
    gap = w_norm(sysm, VectorFunction(lambda x: synth(x) - u1(x)))
    assert gap < 1e-6


def test_forward_inverse_is_identity_in_tau_norm(p1, e1, model1):
    sysm, bc = p1
    rng = np.random.default_rng(7)
    values = rng.standard_normal((len(model1.atoms), 2)) + 1j * rng.standard_normal(
        (len(model1.atoms), 2)
    )
    ghat = TauVector(model1, values)
    synth = inverse_transform(sysm, model1, ghat, engine=e1)
    back = forward_transform(sysm, bc, model1, synth, engine=e1)
    assert back.gap_to(ghat) < 1e-6 * max(1.0, ghat.norm)


def test_inverse_forward_is_projection(p1, e1, model1):
    sysm, bc = p1
    f = const_f()
    fhat = forward_transform(sysm, bc, model1, f, engine=e1)
    synth = inverse_transform(sysm, model1, fhat, engine=e1)
    # independent projection: sum of eigenfunctions times quadrature coefficients
    points = eigen_scan(sysm, bc, -3.5, 3.5, engine=e1)
    rows = {p.value: e1.row(complex(p.value)) for p in points}

    def proj(x):
        out = np.zeros(2, dtype=complex)
        for p in points:
            for c in range(p.multiplicity):
                eta = p.vectors[:, c]
                uk = VectorFunction(lambda t, r=rows[p.value], eta=eta: r.balanced(t) @ eta)
                coeff = w_inner(sysm, uk, f)
                out = out + (rows[p.value].balanced(x) @ eta) * coeff
        return out

    gap = w_norm(sysm, VectorFunction(lambda x: synth(x) - proj(x)))
    assert gap < 1e-6


def test_transform_never_expands_norm(p1, e1, model1):
    sysm, bc = p1
    candidates = [
        const_f(),
        VectorFunction(lambda x: np.array([np.sin(x), x])),
        VectorFunction(lambda x: np.array([1.0, 0.0]), support=(0.5, 2.0)),
    ]
    for f in candidates:
        fhat = forward_transform(sysm, bc, model1, f, engine=e1)
        assert fhat.norm <= w_norm(sysm, f) + 1e-8


def test_inverse_has_trivial_kernel(p1, e1, model1):
    # Gram matrix of the synthesis map over all atom/component directions
    sysm, bc = p1
    atoms = model1.atoms
    dirs = [(i, c) for i, a in enumerate(atoms) for c in range(2)]
    funcs = []
    for i, c in dirs:
        values = np.zeros((len(atoms), 2), dtype=complex)
        values[i, c] = 1.0
        funcs.append(inverse_transform(sysm, model1, TauVector(model1, values), engine=e1))
    G = np.zeros((len(dirs), len(dirs)), dtype=complex)
    for a in range(len(dirs)):
        for b in range(a, len(dirs)):
            G[a, b] = w_inner(sysm, funcs[a], funcs[b])
            G[b, a] = np.conj(G[a, b])
    vals, vecs = np.linalg.eigh(G)
    for k in range(len(dirs)):
        if vals[k] < 1e-9 * max(vals):
            values = vecs[:, k].reshape(len(atoms), 2)
            assert TauVector(model1, values).norm < 1e-6


def test_parseval_for_single_eigenfunction(p1, e1, model1):
    sysm, bc = p1
    eta = [a for a in model1.atoms if a.s == 1.0][0].vectors[:, 0]
    row = e1.row(1.0 + 0j)
    u1 = VectorFunction(lambda x: row.balanced(x) @ eta)
    rep = parseval_check(sysm, bc, model1, u1, truncation=3.5, engine=e1)
    assert abs(rep["transform_sq"] - 1.0) < 1e-8
    assert abs(rep["projection_sq"] - 1.0) < 1e-8


def test_parseval_kernel_function_both_zero(p4, e4, model4):
    sysm, bc = p4
    u0 = VectorFunction(
        lambda x: np.array([1.0, 1.0]) if x < 0 else (np.array([-1.0, 1.0]) if x > 0 else np.array([0.0, 1.0])),
        breakpoints=(0.0,),
    )
    rep = parseval_check(sysm, bc, model4, u0, truncation=3.0, engine=e4)
    assert rep["transform_sq"] < 1e-12
    assert rep["projection_sq"] < 1e-12


def test_parseval_partial_sums_match_series(p1, e1, model1):
    sysm, bc = p1
    rep = parseval_check(sysm, bc, model1, const_f(), truncation=3.5, engine=e1)
    series = sum(4 / (PI * k * k) for k in (-3, -1, 1, 3))
    assert abs(rep["transform_sq"] - series) < 1e-10
    assert abs(rep["projection_sq"] - series) < 1e-8
    # the atoms +-3 are the tau-mass on 1.75 < |s| <= 3.5
    assert abs(rep["tail_estimate"] - 8 / (9 * PI)) < 1e-10


def test_multiplication_property(p1, e1, model1):
    sysm, bc = p1
    g = const_f()
    u = ResolventFunction(sysm, bc, 1j, g, engine=e1)
    f = VectorFunction(lambda x: g(x) + 1j * u(x), breakpoints=u.breakpoints)
    assert multiplication_check(sysm, bc, model1, u, f, engine=e1) < 1e-6


def test_multiplication_for_eigen_pair(p1, e1, model1):
    sysm, bc = p1
    eta = [a for a in model1.atoms if a.s == 1.0][0].vectors[:, 0]
    row = e1.row(1.0 + 0j)
    u1 = VectorFunction(lambda x: row.balanced(x) @ eta)
    f1 = VectorFunction(lambda x: 1.0 * u1(x))
    assert multiplication_check(sysm, bc, model1, u1, f1, engine=e1) < 1e-8


def test_multiplication_trivial_pair(p4, e4, model4):
    sysm, bc = p4
    zero = VectorFunction(lambda x: np.zeros(2))
    # f supported off the weight: transforms vanish identically
    f = VectorFunction(
        lambda x: np.array([0.0, 3.0]) if x == 0.0 else np.zeros(2), breakpoints=(0.0,)
    )
    assert multiplication_check(sysm, bc, model4, zero, f, engine=e4) < 1e-14


def whole_line_point_interaction():
    """Pure point-interaction problem posed on the whole line, with its engine."""
    from blockweyl.engine import Engine
    from blockweyl.measures import MatrixMeasure
    from blockweyl.system import BoundaryConditions, EndpointSpec, SystemSpec

    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    # every solution is square-integrable near the infinite ends (the weight is
    # a single atom), and the coupled boundary row enters through its endpoint
    # limits: (g^* J)(-inf) = (0, -1) and (g^* J)(+inf) = (1, 0)
    sysm = SystemSpec(
        J=J,
        q=MatrixMeasure.point(0.0, np.diag([0.0, 2.0])),
        w=MatrixMeasure.point(0.0, np.diag([2.0, 0.0])),
        interval=(-np.inf, np.inf),
        endpoint_a=EndpointSpec(
            regular=False, l2_span=np.eye(2),
            boundary_limit=lambda lam: np.array([[0.0, -1.0]]),
        ),
        endpoint_b=EndpointSpec(
            regular=False, l2_span=np.eye(2),
            boundary_limit=lambda lam: np.array([[1.0, 0.0]]),
        ),
        anchors=(-1.0, 1.0),
    )
    bc = BoundaryConditions(Ga=np.array([[0.0, -1.0]]), Gb=np.array([[1.0, 0.0]]))
    return sysm, bc, Engine(sysm, bc)


def test_truncation_exhaustion_on_unbounded_interval():
    # transforms of the whole-line problem are reached through the truncation loop
    sysm, bc, eng = whole_line_point_interaction()
    model = spectral_measure_model(sysm, bc, (-2.0, 2.0), engine=eng)
    assert not model.verified  # inversion-only path
    assert len(model.atoms) == 1 and abs(model.atoms[0].s + 1.0) < 1e-8
    f = VectorFunction(
        lambda x: np.array([1.0, 0.0]) if abs(x) < 2 else np.zeros(2),
        breakpoints=(-2.0, 2.0),
    )
    fhat = forward_transform(sysm, bc, model, f, engine=eng)
    assert fhat.values.shape[1] == 4
    # the same atom as in the finite-interval realization: trace 2
    assert abs(np.trace(model.atoms[0].weight).real - 2.0) < 1e-3


def test_truncations_of_data_not_square_integrable_at_a_singular_end_raise(p1, model1):
    # P1 with its right end declared singular: the truncations keep margins
    # (b - a) / 2^(level + 3) inside (0, pi), and data growing like
    # (pi - x)^-2 there make each increment about twice the one before
    sysm, bc = p1
    singular = dataclasses.replace(sysm, endpoint_b=EndpointSpec(regular=False, l2_span=np.eye(2)))
    f = VectorFunction(lambda x: np.array([1.0 / max(PI - x, 1e-9) ** 2, 0.0]))
    with pytest.raises(AccuracyError, match="not shrinking"):
        forward_transform(singular, bc, model1, f, engine=Engine(singular, bc))


def test_truncations_that_run_out_before_converging_raise(p1, e1):
    # square-integrable data (pi - x)^(-1/4) at the singular end: the nine
    # gaps shrink from about 7e-2 to 3e-6 but never reach cauchy_tol = 1e-8
    sysm, bc = p1
    singular = dataclasses.replace(sysm, endpoint_b=EndpointSpec(regular=False, l2_span=np.eye(2)))
    model = spectral_measure_model(*p1, (0.5, 1.5), engine=e1)
    f = VectorFunction(lambda x: np.array([(PI - x) ** -0.25, 0.0]))
    with pytest.raises(AccuracyError, match="did not reach") as info:
        forward_transform(singular, bc, model, f, engine=Engine(singular, bc))
    assert 1e-6 < info.value.achieved < 1e-5


@pytest.mark.parametrize("lo", [-2.0013, -2.0025, -2.1])
def test_whole_line_atom_off_the_density_grid_raises(lo):
    # the 801-point grid misses the atom at -1: the peak node's weight has a
    # vanishing estimate and an extrapolation spread of order 0.2, not a weight
    sysm, bc, eng = whole_line_point_interaction()
    with pytest.raises(AccuracyError, match="did not converge"):
        spectral_measure_model(sysm, bc, (lo, 2.0), engine=eng)


def test_resolvent_on_the_whole_line():
    # the weight is one atom at the partition point 0: the drive solves meet no
    # w density and stay on the closed-form flow out to the infinite ends
    sysm, bc, eng = whole_line_point_interaction()
    f = VectorFunction(
        lambda x: np.array([1.0, 0.0]) if abs(x) < 2 else np.zeros(2),
        breakpoints=(-2.0, 2.0),
    )
    R = ResolventFunction(sysm, bc, 1j, f, engine=eng)
    assert np.max(np.abs(R.transform - np.array([1.0, 0.0, 1.0, 0.0]))) < 1e-12
    for x, want in ((-3.0, [-0.5 + 0.5j, 0.5 - 0.5j]), (-0.5, [-0.5 + 0.5j, 0.5 - 0.5j]),
                    (0.5, [-0.5 + 0.5j, -0.5 + 0.5j]), (3.0, [-0.5 + 0.5j, -0.5 + 0.5j])):
        assert np.max(np.abs(R(x) - np.array(want))) < 1e-12


@pytest.mark.parametrize("name", ["P1", "P2", "P3", "P4"])
def test_synthesis_many_is_bitwise_balanced(name):
    cfg = ProblemConfig.load(name)
    sysm, bc = cfg.system, cfg.boundary
    eng = Engine(sysm, bc)
    model = spectral_measure_model(sysm, bc, (-6.5, 6.5), engine=eng, eps_schedule=cfg.eps_schedule)
    synth = inverse_transform(sysm, model, forward_transform(sysm, bc, model, cfg.expand_f, engine=eng),
                              engine=eng)
    a, b = (np.clip(end, -5.0, 5.0) for end in sysm.interval)
    xs = np.sort(np.concatenate([np.linspace(a, b, 300), sysm.atom_positions()]))
    want = np.stack([synth.balanced(float(x)) for x in xs])
    got = synth.many(xs)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert synth.many(np.array([])).shape == (0, sysm.dim)


@pytest.mark.parametrize("name", ["P1", "P2", "P3", "P4"])
def test_synthesis_and_resolvent_read_a_point_as_a_batch_of_one(name):
    # at atoms, partition points, the interval ends and interior points, on
    # both sides and balanced; NaN and points off the interval raise
    cfg = ProblemConfig.load(name)
    sysm, bc = cfg.system, cfg.boundary
    eng = Engine(sysm, bc)
    model = spectral_measure_model(sysm, bc, (-3.5, 3.5), engine=eng, eps_schedule=cfg.eps_schedule)
    synth = inverse_transform(sysm, model, forward_transform(sysm, bc, model, cfg.expand_f, engine=eng),
                              engine=eng)
    res = ResolventFunction(sysm, bc, 1.3 + 0.4j, cfg.expand_f, engine=eng)
    a, b = sysm.interval
    xs = sorted({a, b, *sysm.atom_positions(), *eng.sing.partition, *np.linspace(a, b, 7)[1:-1]})
    for fn in (synth, res):
        assert_sides_are_batches_of_one(fn, xs, outside=[np.nan, a - 0.5, b + 0.5])


def test_w_inner_of_a_synthesis_samples_it_on_arrays(p1, e1, model1, monkeypatch):
    synth = inverse_transform(p1[0], model1, forward_transform(*p1, model1, const_f(), engine=e1), engine=e1)
    # the reference reads the synthesis point by point; a plain callable would
    # be read through its Chebyshev form instead
    one_by_one = VectorFunction(ArrayForm(lambda xs: np.array([synth(x) for x in xs])))
    pointwise = w_inner(p1[0], one_by_one, one_by_one)
    calls, balanced = [], SolutionRow.balanced

    def counted(self, x):
        calls.append(x)
        return balanced(self, x)

    monkeypatch.setattr(SolutionRow, "balanced", counted)
    assert w_inner(p1[0], synth, synth) == pointwise
    assert calls == []


# -- transform quadrature started at one period of the row ----------------


@pytest.fixture(scope="module")
def row_systems(p1, p2):
    """P1, P2 and P1 with a quadratic ``q`` density and a ``q`` atom, each
    with an engine: constant stretches, an atom, fitted stretches."""
    return {name: (sysm, Engine(sysm, bc)) for name, (sysm, bc) in
            (("P1", p1), ("P2", p2), ("smooth_p1", smooth_p1(p1)))}


def quadratic_pieces(xb, left, right):
    """``f`` with quadratic pieces on (0, xb) and (xb, pi), balanced at ``xb``."""
    poly = lambda c, x: c[0] + c[1] * x + c[2] * x * x
    pick = lambda x: poly(left, x) if x < xb else poly(right, x) if x > xb else 0.5 * (poly(left, x) + poly(right, x))
    return VectorFunction(pick, support=(0.0, PI), breakpoints=(xb,))


def plain_transform(sysm, row, f, integrand=None):
    """The transform's integral from its base panels alone, and the integral
    of the integrand's absolute value (as the mean of 4001 samples times
    the length, the weights having no atoms), the scale of the quadrature's
    relative tolerance."""
    integrand = integrand or row_integrand(row, f)
    plain = integrate_bv(integrand, sysm.w, IntervalSpec(*sysm.interval),
                         breakpoints=list(f.breakpoints) + sysm.atom_positions(), tols=sysm.tols)
    xs = np.linspace(*sysm.interval, 4001)
    scale = (xs[-1] - xs[0]) * np.mean(np.abs(row_integrand(row, f)(xs, sysm.w.density_many(xs))), axis=0)
    return plain, float(np.max(scale))


coefficients = st.lists(st.complex_numbers(max_magnitude=3.0), min_size=6, max_size=6).map(
    lambda c: np.array(c).reshape(3, 2))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["P1", "P2", "smooth_p1"]), s=st.floats(-200.0, 200.0),
       xb=st.floats(0.3, PI - 0.3), left=coefficients, right=coefficients)
def test_transform_matches_the_plain_integral(row_systems, name, s, xb, left, right):
    sysm, eng = row_systems[name]
    f = quadratic_pieces(xb, left, right)
    row = eng.row(np.conj(s))
    plain, scale = plain_transform(sysm, row, f)
    got = forward_transform_compact(sysm, f, s, row_conj=row)
    assert np.max(np.abs(got - plain)) <= 1e-12 * scale


def test_transform_evaluates_fewer_nodes_than_the_plain_integral(p1, e1, monkeypatch):
    sysm, _ = p1
    f = quadratic_pieces(1.3, np.array([[1.0, 0.5], [0.2, -1.0], [0.1, 0.3]]),
                         np.array([[-0.4, 1.0], [0.7, 0.2], [0.0, -0.1]]))
    row = e1.row(np.conj(80.0))
    nodes = []

    def counted(row, f):
        integrand = row_integrand(row, f)

        def count(xs, dms):
            nodes.append(len(xs))
            return integrand(xs, dms)

        return count

    plain, _ = plain_transform(sysm, row, f, counted(row, f))
    plain_nodes = sum(nodes)
    nodes.clear()
    monkeypatch.setattr(propagation, "row_integrand", counted)
    got = forward_transform_compact(sysm, f, 80.0, row_conj=row)
    assert np.max(np.abs(got - plain)) < 1e-12
    assert sum(nodes) <= 0.65 * plain_nodes


def dyadic_midpoints(lo, hi, depth):
    """Every repeated midpoint ``0.5 * (a + b)`` of ``[lo, hi]``, down to ``depth`` bisections."""
    if depth == 0 or not lo < 0.5 * (lo + hi) < hi:
        return set()
    mid = 0.5 * (lo + hi)
    return {mid} | dyadic_midpoints(lo, mid, depth - 1) | dyadic_midpoints(mid, hi, depth - 1)


def initial_panels(sysm, s, breaks, period=True):
    """The panels a transform at ``s`` over (0, pi) starts from, with or
    without the cuts at one period of the row."""
    widest = propagation._row_period(sysm, s, 0.0, PI) if period else None
    return quadrature._initial_panels(0.0, PI, breaks, widest, 4096)


@pytest.mark.parametrize("name", ["P1", "P2", "smooth_p1"])
@pytest.mark.parametrize("s", [-37.5, 80.0, 200.0])
def test_split_points_are_repeated_midpoints_of_the_base_panels(row_systems, name, s):
    sysm, _ = row_systems[name]
    breaks = [1.3] + sysm.atom_positions()
    base = initial_panels(sysm, s, breaks, period=False)
    pieces = initial_panels(sysm, s, breaks)
    edges = {x for panel in base for x in panel}
    midpoints = set().union(*(dyadic_midpoints(a, b, 12) for a, b in base))
    cuts = {x for panel in pieces for x in panel}
    assert len(pieces) > len(base) and cuts - edges <= midpoints
    # no panel is left wider than one period of the row, |s| on the free system
    if name != "smooth_p1":
        assert max(b - a for a, b in pieces) <= 2 * PI / abs(s)


def array_f(fn, **kwargs):
    """``fn`` of an array of points as an :class:`ArrayForm`, which :func:`propagation.sampled`
    passes through, so that its transform takes the adaptive quadrature."""
    return VectorFunction(ArrayForm(fn), **kwargs)


@pytest.mark.parametrize("name", ["P1", "P2"])
def test_no_split_point_where_one_period_covers_the_panel(row_systems, name):
    # the free row at 2 has period pi, which covers (0, pi) and both halves
    # of P2: the adaptive transform of an array form is the integral from
    # the base panels, bit for bit
    sysm, eng = row_systems[name]
    atoms = sysm.atom_positions()
    assert initial_panels(sysm, 2.0, atoms) == initial_panels(sysm, 2.0, atoms, period=False)
    assert initial_panels(sysm, 1.9, [1.3]) == initial_panels(sysm, 1.9, [1.3], period=False)
    row = eng.row(np.conj(2.0))
    f = array_f(lambda xs: np.repeat([[1.0, 0.0]], len(xs), axis=0))
    plain = integrate_bv(row_integrand(row, f), sysm.w, IntervalSpec(*sysm.interval),
                         breakpoints=atoms, tols=sysm.tols)
    assert forward_transform_compact(sysm, f, 2.0, row_conj=row).tobytes() == plain.tobytes()


def test_split_points_at_a_huge_parameter_stay_within_half_the_budget(p1, e1, monkeypatch):
    # at 1e6 the row has 5e5 periods on (0, pi): the quadrature still runs
    # out of panels, as it does from the base panels, and the split points
    # give it at most half of its budget to start from
    sysm, _ = p1
    row = e1.row(1e6)
    with pytest.raises(AccuracyError, match="did not converge"):
        integrate_bv(row_integrand(row, const_f()), sysm.w, IntervalSpec(*sysm.interval), tols=sysm.tols)
    cut, initial = quadrature._initial_panels, []

    def counted(*args):
        initial.append(len(cut(*args)))
        return cut(*args)

    monkeypatch.setattr(quadrature, "_initial_panels", counted)
    with pytest.raises(AccuracyError, match="did not converge"):
        forward_transform_compact(sysm, const_f(), 1e6, row_conj=row)
    assert initial and 4096 // 4 < max(initial) <= 4096 // 2


def test_transform_with_more_base_panels_than_half_the_budget(p1, e1):
    # 2100 breakpoints of f at 80: no cut fits in half the budget, so the
    # transform starts from its base panels, the same bits as without cuts
    sysm, _ = p1
    f = array_f(lambda xs: np.stack([np.cos(xs), np.ones_like(xs)], axis=-1), support=(0.0, PI),
                breakpoints=tuple(np.linspace(0.0, PI, 2102)[1:-1]))
    row = e1.row(np.conj(80.0))
    plain = integrate_bv(row_integrand(row, f), sysm.w, IntervalSpec(*sysm.interval),
                         breakpoints=list(f.breakpoints) + sysm.atom_positions(), tols=sysm.tols)
    assert forward_transform_compact(sysm, f, 80.0, row_conj=row).tobytes() == plain.tobytes()


def test_no_period_on_an_unbounded_stretch_with_a_non_constant_density():
    # a degree-1 q density on (1, inf) has no Chebyshev fit (its nodes would
    # be NaN): the stretch gives no period, while the fitted stretch (0, 1)
    # gives one of the row at 30, 2 pi / 30
    ramp = np.array([np.zeros((2, 2)), 0.1 * np.eye(2)])
    q = MatrixMeasure(dim=2, segments=(Segment((0.0, 1.0), coeffs=ramp), Segment((1.0, np.inf), coeffs=ramp)))
    w = MatrixMeasure(dim=2, segments=(Segment((0.0, np.inf), coeffs=np.eye(2)[None]),))
    with warnings.catch_warnings():
        # the system's own checks evaluate the ramp at its infinite end
        warnings.simplefilter("ignore", RuntimeWarning)
        sysm = SystemSpec(J=np.array([[0.0, -1.0], [1.0, 0.0]]), q=q, w=w, interval=(0.0, np.inf),
                          endpoint_b=EndpointSpec(regular=False, l2_span=np.eye(2)), anchors=(0.0,))
    widest = propagation._row_period(sysm, 30.0, 0.0, 2.0)
    assert widest(1.0, 2.0) == np.inf
    assert abs(widest(0.0, 0.5) - 2 * PI / 30.0) < 1e-14
    assert widest(0.5, 1.5) == widest(0.0, 0.5)


def test_rows_of_a_transform_are_built_in_one_array_call(p1, monkeypatch):
    # ten atoms and a store of four rows: every atom row comes from one array
    # call, and none is rebuilt when the later ones push it out of the store
    from blockweyl import engine as engine_module

    sysm, bc = p1
    model = spectral_measure_model(sysm, bc, (-4.5, 5.5))
    assert len(model.atoms) == 10
    monkeypatch.setattr(engine_module, "ROW_CAPACITY", 4)
    builds = []
    build = engine_module.solution_row
    monkeypatch.setattr(engine_module, "solution_row",
                        lambda sys, lam, **kw: builds.append(np.shape(lam)) or build(sys, lam, **kw))
    eng = Engine(sysm, bc)
    fhat = forward_transform(sysm, bc, model, const_f(), engine=eng)
    assert builds == [(10,)] and len(eng._rows) == 4
    loop = [forward_transform_compact(sysm, const_f(), atom.s, row_conj=propagation.solution_row(sysm, atom.s))
            for atom in model.atoms]
    assert np.array_equal(fhat.values, np.stack(loop))


# -- a plain callable read through its Chebyshev form --------------------


def counted(fn, calls):
    """``fn`` recording each point it is called at in ``calls``."""
    return lambda x: calls.append(x) or fn(x)


def piecewise_exp(breaks, coeffs, k):
    """``p_j(x) exp(ikx)`` with the quartic ``p_j`` of ``coeffs[j]`` on the
    ``j``-th piece between ``breaks``, balanced at them: as a plain callable
    and as an array form."""
    def pieces(xs):
        powers = xs[:, None] ** np.arange(5)
        phase = np.exp(1j * k * xs)[:, None]
        at = np.searchsorted(breaks, xs)
        left = np.einsum("md,mdc->mc", powers, coeffs[at]) * phase
        right = np.einsum("md,mdc->mc", powers, coeffs[np.minimum(at + 1, len(breaks))]) * phase
        on_break = np.isin(xs, breaks)[:, None]
        return np.where(on_break, 0.5 * (left + right), left)

    hints = dict(support=(0.0, PI), breakpoints=tuple(breaks))
    return (VectorFunction(lambda x: pieces(np.array([x]))[0], **hints),
            VectorFunction(ArrayForm(pieces), **hints))


breaks_in_pi = st.lists(st.floats(0.1, PI - 0.1), max_size=3, unique=True).map(sorted).filter(
    lambda b: all(y - x > 1e-2 for x, y in zip(b, b[1:])))


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(["P1", "P2"]), s=st.floats(-80.0, 80.0), breaks=breaks_in_pi,
       k=st.floats(-8.0, 8.0), seed=st.integers(0, 2**32 - 1))
def test_sampled_transform_matches_the_array_form(row_systems, name, s, breaks, k, seed):
    # piecewise quartics times exp(ikx): the sampled plain callable gives the
    # transform and the weighted norm of the array form to 1e-12
    sysm, eng = row_systems[name]
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(len(breaks) + 1, 5, 2)) + 1j * rng.normal(size=(len(breaks) + 1, 5, 2))
    plain, array = piecewise_exp(np.array(breaks), coeffs, k)
    assert isinstance(propagation.sampled(sysm, plain).fn, propagation.ChebyshevForm)
    row = eng.row(np.conj(s))
    want, scale = plain_transform(sysm, row, array)
    got = forward_transform_compact(sysm, plain, s, row_conj=row)
    assert np.max(np.abs(got - want)) <= 1e-12 * scale
    assert abs(w_inner(sysm, plain, plain) - w_inner(sysm, array, array)) <= 1e-12 * w_inner(sysm, array, array).real


def test_sampling_is_idempotent_and_leaves_forms_alone(p1):
    sysm, _ = p1
    f = const_f()
    once = propagation.sampled(sysm, f)
    assert once is not f and propagation.sampled(sysm, once) is once
    array = VectorFunction(ArrayForm(lambda xs: np.ones((len(xs), 2))))
    assert propagation.sampled(sysm, array) is array
    assert propagation.sampled(sysm, array.fn) is array.fn


def chebyshev_on_p1(k):
    """``T_k`` of the variable of (0, pi) mapped to [-1, 1]."""
    return lambda x: np.cos(k * np.arccos(np.clip(2 * x / PI - 1, -1.0, 1.0)))


def test_a_size_is_taken_only_when_the_next_one_confirms_it(p1):
    # T_32 of the piece reads 1 at the 8 points and -1 at the 16, with a
    # negligible tail at both; the 16 points and then the 32 disagree with
    # the size before, and only 64, confirmed by 128, holds it
    sysm, _ = p1
    calls = []
    t32 = chebyshev_on_p1(32)
    f = VectorFunction(counted(lambda x: np.array([t32(x), 1.0]), calls))
    form = propagation.sampled(sysm, f).fn
    assert form.coeffs.shape == (1, 64, 2) and len(calls) == 8 + 16 + 32 + 64 + 128
    xs = np.linspace(0.0, PI, 1001)[1:-1]
    assert np.max(np.abs(form.many(xs) - np.array([f(x) for x in xs]))) <= 1e-13


@pytest.mark.parametrize("degree", range(12))
def test_a_polynomial_piece_takes_the_fewest_samples_its_degree_allows(p1, degree):
    # a random complex polynomial of degree <= 5 has a zero trailing quarter
    # at 8 points and is taken there once the 16 agree: 24 calls, a series
    # of length 8; degrees 6 to 11 are taken at 16, confirmed by 32
    sysm, _ = p1
    rng = np.random.default_rng(degree)
    coeffs = rng.normal(size=(degree + 1, 2)) + 1j * rng.normal(size=(degree + 1, 2))
    calls = []
    fn = lambda x: sum(c * chebyshev_on_p1(k)(x) for k, c in enumerate(coeffs))
    form = propagation.sampled(sysm, VectorFunction(counted(fn, calls))).fn
    low = degree <= 5
    assert len(calls) == (8 + 16 if low else 8 + 16 + 32)
    assert form.coeffs.shape == (1, 8 if low else 16, 2)
    xs = np.linspace(0.0, PI, 1002)[1:-1]
    scale = max(np.max(np.abs(fn(x))) for x in calls)
    assert np.max(np.abs(form.many(xs) - np.array([fn(x) for x in xs]))) <= 1e-14 * scale


def test_a_size_whose_points_miss_a_mode_is_not_taken(p1):
    # 1 + T_16 reads 0 at the 8 points, a zero series with a zero tail, and
    # 1 at the 16; neither agrees with the next size until 32, confirmed by 64
    sysm, _ = p1
    calls = []
    t16 = chebyshev_on_p1(16)
    f = counted(lambda x: np.array([1.0 + t16(x), 0.0]), calls)
    form = propagation.sampled(sysm, VectorFunction(f)).fn
    first = np.array([1.0 + t16(x) for x in calls[:8 + 16]])
    assert np.max(np.abs(first[:8])) <= 1e-13 and np.max(np.abs(first[8:] - 1.0)) <= 1e-13
    assert form.coeffs.shape == (1, 32, 2) and len(calls) == 8 + 16 + 32 + 64
    xs = np.linspace(0.0, PI, 1001)[1:-1]
    assert np.max(np.abs(form.many(xs)[:, 0] - (1.0 + t16(xs)))) <= 1e-13


def test_an_undeclared_jump_keeps_the_per_node_calls(p1, e1):
    # no size resolves a jump, so f is called at every node as it is unsampled
    sysm, _ = p1
    f = VectorFunction(lambda x: np.array([1.0, 0.5]) if x < 1.1 else np.array([-0.3, 2.0]))
    assert propagation.sampled(sysm, f) is f
    row = e1.row(np.conj(3.0))
    plain = integrate_bv(row_integrand(row, f), sysm.w, IntervalSpec(*sysm.interval), tols=sysm.tols)
    assert forward_transform_compact(sysm, f, 3.0, row_conj=row).tobytes() == plain.tobytes()


@pytest.mark.parametrize("density", [False, True], ids=["P3", "P3-with-density"])
def test_a_w_atom_gets_the_value_f_takes_there(p3, density):
    # f jumps at P3's w atom x = 1 and gives its balanced value there; two f
    # differing only at 1 differ in their transforms by the atom's term alone
    sysm, _ = p3
    if density:
        w = MatrixMeasure(dim=2, segments=(Segment((0.0, 2.0), coeffs=np.eye(2)[None]),), atoms=sysm.w.atoms)
        sysm = SystemSpec(J=sysm.J, q=sysm.q, w=w, interval=sysm.interval, tols=sysm.tols)
    left, right = np.array([1.0, -0.5j]), np.array([0.25, 2.0])
    at_atom = {"balanced": 0.5 * (left + right), "other": np.array([3.0, 1.0])}
    calls = {key: [] for key in at_atom}
    transforms = {}
    row = propagation.solution_row(sysm, np.conj(1.7))
    for key, value in at_atom.items():
        fn = lambda x, value=value: left if x < 1.0 else right if x > 1.0 else value
        transforms[key] = forward_transform_compact(sysm, VectorFunction(counted(fn, calls[key])), 1.7, row_conj=row)
        assert calls[key].count(1.0) == 1
    weight = dict(sysm.w.atoms)[1.0]
    atom_term = np.conj(row.balanced(1.0)).T @ weight @ (at_atom["balanced"] - at_atom["other"])
    assert np.max(np.abs(transforms["balanced"] - transforms["other"] - atom_term)) <= 1e-14 * np.max(np.abs(atom_term))


def test_a_transform_calls_a_plain_f_a_bounded_number_of_times(p1, e1, model1):
    # a one-atom transform of a piecewise quadratic, as the expansion
    # benchmark makes it, and the Parseval-200 fixture's constant f: at most
    # 50 calls each (8 + 16 per resolved piece), against one per node
    sysm, bc = p1
    calls = []
    f = quadratic_pieces(1.3, np.array([[1.0, 0.5], [0.2, -1.0], [0.1, 0.3]]),
                         np.array([[-0.4, 1.0], [0.7, 0.2], [0.0, -0.1]]))
    f = dataclasses.replace(f, fn=counted(f.fn, calls))
    one = SpectralMeasureModel(atoms=[model1.atoms[-1]], scan_range=model1.scan_range)
    forward_transform(sysm, bc, one, f, engine=e1)
    assert 0 < len(calls) <= 50
    calls.clear()
    model = spectral_measure_model(sysm, bc, (-200.25, 200.25), engine=e1)
    parseval_check(sysm, bc, model, VectorFunction(counted(lambda x: np.array([1.0, 0.0]), calls)),
                   truncation=200.0, engine=e1)
    assert 0 < len(calls) <= 50


# -- Gauss-Legendre rules on constant stretches --------------------------

# w densities whose flow J^-1 W takes each kind: a well-conditioned
# eigenbasis, a nilpotent matrix, and an eigenbasis conditioned near 1e4
FLOW_WEIGHTS = {
    "diag": np.array([[1.0, 0.3 + 0.2j], [0.3 - 0.2j, 0.5]]),
    "series": np.diag([1.0, 0.0]),
    "expm": np.diag([1.0, 1e-8]),
}


def chebyshev_data(rng, length, pieces, K, decay):
    """A :class:`ChebyshevForm` on ``pieces`` equal pieces of ``(0, length)``,
    series of length ``K`` with random coefficients shrinking like ``decay^k``."""
    edges = np.linspace(0.0, length, pieces + 1)
    coeffs = (rng.normal(size=(pieces, K, 2)) + 1j * rng.normal(size=(pieces, K, 2))) * decay ** np.arange(K)[:, None]
    return propagation.ChebyshevForm(lambda x: np.zeros(2), np.column_stack([edges[:-1], edges[1:]]), coeffs)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(FLOW_WEIGHTS)), size=st.floats(0.2, 3.0), length=st.floats(0.3, 3.0),
       with_q=st.booleans(), s=st.floats(-200.0, 200.0), pieces=st.integers(1, 3), K=st.integers(1, 128),
       decay=st.floats(0.5, 1.0), seed=st.integers(0, 2**32 - 1))
def test_gauss_rules_match_adaptive_quadrature_on_constant_stretches(kind, size, length, with_q, s, pieces, K,
                                                                     decay, seed):
    # every piece of the form takes a fixed rule, within 1e-12 of the integral
    # of the integrand's absolute value from the adaptive quadrature
    rng = np.random.default_rng(seed)
    q = MatrixMeasure.zero(2)
    if with_q:
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q = MatrixMeasure.constant(h + h.conj().T, (0.0, length))
    sysm = SystemSpec(J=J2, q=q, w=MatrixMeasure.constant(size * FLOW_WEIGHTS[kind], (0.0, length)),
                      interval=(0.0, length))
    row = propagation.solution_row(sysm, np.conj(s))
    if not with_q:
        assert [piece.flow.kind for piece in row.fundamentals[0].pieces] == [kind] * len(row.fundamentals[0].pieces)
    form = chebyshev_data(rng, length, pieces, K, decay)
    rules = propagation._gauss_rules(sysm, row, form, np.conj(s))
    assert sorted({(a, b) for a, b, _ in rules}) == [tuple(edge) for edge in form.edges.tolist()]
    got = forward_transform_compact(sysm, form, s, row_conj=row)
    integrand = row_integrand(row, form)
    whole = IntervalSpec(0.0, length)
    tight = dataclasses.replace(sysm.tols, quad_rel=1e-12, quad_abs=1e-300)
    want = integrate_bv(integrand, sysm.w, whole, breakpoints=form.edges.ravel(), tols=tight)
    scale = integrate_bv(lambda xs, dms: np.abs(integrand(xs, dms)), sysm.w, whole, breakpoints=form.edges.ravel())
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(scale))


@pytest.mark.parametrize("name", ["P1", "P2"])
def test_a_resolved_f_takes_no_adaptive_quadrature(p1, p2, e1, e2, name, monkeypatch):
    # a piecewise quadratic, read through its Chebyshev form, on P1 and P2:
    # every piece lies in a constant stretch (P2's right one across its
    # anchor) and takes a fixed rule, so no quadrature.integrate call is made
    (sysm, bc), eng = {"P1": (p1, e1), "P2": (p2, e2)}[name]
    model = spectral_measure_model(sysm, bc, (-6.5, 6.5), engine=eng)
    f = quadratic_pieces(1.3, np.array([[1.0, 0.5], [0.2, -1.0], [0.1, 0.3]]),
                         np.array([[-0.4, 1.0], [0.7, 0.2], [0.0, -0.1]]))
    want = forward_transform(sysm, bc, model, f, engine=eng).values
    calls = []
    integrate = quadrature.integrate
    monkeypatch.setattr(quadrature, "integrate", lambda *args, **kwargs: calls.append(args) or integrate(*args, **kwargs))
    got = forward_transform(sysm, bc, model, f, engine=eng).values
    assert not calls and np.array_equal(got, want)


def test_a_row_reads_the_rates_of_each_constant_flow_once(p2, monkeypatch):
    # a second f with the same pieces reads no rates from the system, and its
    # transform is bitwise that against a row that has kept none
    sysm, _ = p2
    reads = []
    rates = propagation._stretch_rates
    monkeypatch.setattr(propagation, "_stretch_rates", lambda *args: reads.append(args) or rates(*args))
    row = propagation.solution_row(sysm, np.conj(7.0))
    rng = np.random.default_rng(3)
    f, g = (quadratic_pieces(1.3, rng.normal(size=(3, 2)), rng.normal(size=(3, 2))) for _ in "fg")
    forward_transform_compact(sysm, f, 7.0, row_conj=row)
    assert len(reads) == len(row.flow_rates) > 0
    got = forward_transform_compact(sysm, g, 7.0, row_conj=row)
    assert len(reads) == len(row.flow_rates)
    fresh = propagation.solution_row(sysm, np.conj(7.0))
    assert got.tobytes() == forward_transform_compact(sysm, g, 7.0, row_conj=fresh).tobytes()


def test_a_piece_above_the_node_cap_takes_the_adaptive_quadrature(p1, e1, monkeypatch):
    # with a budget of one panel (15 nodes) no piece fits, and the transform
    # is bitwise the adaptive one; at 1e6 the row needs more nodes than the
    # real budget allows
    sysm, _ = p1
    f = propagation.sampled(sysm, quadratic_pieces(1.3, np.array([[1.0, 0.5], [0.2, -1.0], [0.1, 0.3]]),
                                                   np.array([[-0.4, 1.0], [0.7, 0.2], [0.0, -0.1]])))
    assert not propagation._gauss_rules(sysm, e1.row(1e6), f, 1e6)
    row = e1.row(np.conj(80.0))
    assert propagation._gauss_rules(sysm, row, f, np.conj(80.0))
    monkeypatch.setattr(quadrature, "MAX_PANELS", 1)
    assert not propagation._gauss_rules(sysm, row, f, np.conj(80.0))
    adaptive = integrate_bv(row_integrand(row, f), sysm.w, IntervalSpec(*sysm.interval),
                            breakpoints=list(f.breakpoints) + sysm.atom_positions(), tols=sysm.tols,
                            widest=propagation._row_period(sysm, np.conj(80.0), 0.0, PI))
    assert forward_transform_compact(sysm, f, 80.0, row_conj=row).tobytes() == adaptive.tobytes()
