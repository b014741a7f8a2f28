import dataclasses

import numpy as np
import pytest

from conftest import assert_sides_are_batches_of_one, rotation
from blockweyl.config import ProblemConfig
from blockweyl.engine import Engine
from blockweyl.errors import AccuracyError
from blockweyl.propagation import SolutionRow, VectorFunction
from blockweyl.spectral import ResolventFunction, eigen_scan, spectral_measure_model
from blockweyl.system import EndpointSpec
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
    pointwise = w_inner(p1[0], lambda x: synth(x), lambda x: synth(x))
    calls, balanced = [], SolutionRow.balanced

    def counted(self, x):
        calls.append(x)
        return balanced(self, x)

    monkeypatch.setattr(SolutionRow, "balanced", counted)
    assert w_inner(p1[0], synth, synth) == pointwise
    assert calls == []
