import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import J2, rotation
from blockweyl.errors import SingularTransferError, StructuralError
from blockweyl.measures import MatrixMeasure, Segment
from blockweyl.propagation import (
    VectorFunction,
    evaluate_many,
    forward_transform_compact,
    fundamental_matrix,
    solution_row,
    solve_ivp,
    wronskian_defect,
)
from blockweyl.system import SystemSpec


def test_free_system_closed_form(p1):
    sysm, _ = p1
    lam = 1.7
    sol = solve_ivp(sysm, 0, lam, 0.0, np.array([1.0, 0.0]))
    for x in (0.4, 1.1, 2.9):
        expect = np.array([np.cos(lam * x), -np.sin(lam * x)])
        assert np.max(np.abs(sol(x) - expect)) < 1e-12


def test_zero_coefficients_constant_solution():
    sysm = SystemSpec(J=J2, q=MatrixMeasure.zero(2), w=MatrixMeasure.zero(2), interval=(0.0, 1.0))
    sol = solve_ivp(sysm, 0, 0.0, 0.5, np.array([2.0, -1.0]))
    for x in (0.0, 0.3, 1.0):
        assert np.array_equal(sol(x), np.array([2.0, -1.0], dtype=complex))


def test_delta_transfer_matches_hand_oracle(p2):
    sysm, _ = p2
    # at lam=0 the solution is constant off the atom; u2 jumps by alpha*u1
    sol = solve_ivp(sysm, 0, 0.0, 0.0, np.array([1.0, 0.0]))
    assert np.allclose(sol.left(np.pi / 2), [1.0, 0.0])
    assert np.allclose(sol.right(np.pi / 2), [1.0, 2.0])
    assert np.allclose(sol.balanced(np.pi / 2), [1.0, 1.0])
    # generic lam: compare against explicit transfer matrix propagation
    lam = 0.9
    sol = solve_ivp(sysm, 0, lam, 0.0, np.array([0.0, 1.0]))
    u_pre = rotation(lam * np.pi / 2) @ np.array([0.0, 1.0])
    u_post = np.array([[1.0, 0.0], [2.0, 1.0]]) @ u_pre
    u_end = rotation(lam * np.pi / 2) @ u_post
    assert np.max(np.abs(sol(np.pi) - u_end)) < 1e-12


def test_inhomogeneous_jump_condition_at_weight_atom():
    # a crossable weight atom (not a partition point) driven by f
    sysm = SystemSpec(
        J=J2,
        q=MatrixMeasure.zero(2),
        w=MatrixMeasure(
            dim=2,
            segments=(Segment((0.0, 1.0), lambda x: np.eye(2), degree=0),),
            atoms=((0.5, np.diag([2.0, 0.0])),),
        ),
        interval=(0.0, 1.0),
    )
    f = VectorFunction(lambda x: np.array([1.0, 0.5]))
    lam = 0.7 + 0.2j
    sol = solve_ivp(sysm, 0, lam, 0.0, np.array([1.0, 1.0]), f=f)
    from blockweyl.system import jump_matrices

    bm, bp = jump_matrices(sysm, 0.5, lam)
    resid = bp @ sol.right(0.5) - bm @ sol.left(0.5) - np.diag([2.0, 0.0]) @ f(0.5)
    assert np.max(np.abs(resid)) < 1e-10


def test_solver_determinism(p2):
    sysm, _ = p2
    a = solve_ivp(sysm, 0, 1j, 0.3, np.array([1.0, 2.0]))
    b = solve_ivp(sysm, 0, 1j, 0.3, np.array([1.0, 2.0]))
    xs = np.linspace(0.0, np.pi, 17)
    assert all(np.array_equal(a(float(x)), b(float(x))) for x in xs)


def test_initial_point_on_atom_rejected(p2):
    sysm, _ = p2
    with pytest.raises(StructuralError):
        solve_ivp(sysm, 0, 1.0, np.pi / 2, np.array([1.0, 0.0]))


def test_singular_transfer_raises():
    sysm = SystemSpec(
        J=np.array([[1j]]),
        q=MatrixMeasure.point(0.0, np.array([[1.0]])),
        w=MatrixMeasure.point(0.0, np.array([[1.0]])),
        interval=(-1.0, 1.0),
    )
    # B+ is singular exactly at lam = 1 + 2i
    with pytest.raises(SingularTransferError):
        solve_ivp(sysm, 0, 1 + 2j, -0.5, np.array([1.0]))


def test_fundamental_matrix_rotation(p1):
    sysm, _ = p1
    lam = 2.3
    U = fundamental_matrix(sysm, 0, lam, anchor=0.0)
    for x in (0.0, 1.0, np.pi):
        assert np.max(np.abs(U(x) - rotation(lam * x))) < 1e-12


def test_fundamental_identity_for_zero_coefficients():
    sysm = SystemSpec(J=J2, q=MatrixMeasure.zero(2), w=MatrixMeasure.zero(2), interval=(0.0, 1.0))
    U = fundamental_matrix(sysm, 0, 0.0)
    assert np.array_equal(U(0.25), np.eye(2, dtype=complex))


def test_p4_fundamentals_are_identity(p4):
    sysm, _ = p4
    for j, lam in ((0, 0.5), (1, 1.0), (0, 2 + 1j)):
        U = fundamental_matrix(sysm, j, lam)
        xs = (-0.7, -0.2) if j == 0 else (0.2, 0.7)
        for x in xs:
            assert np.max(np.abs(U(x) - np.eye(2))) < 1e-14


def test_solution_row_extension_by_zero(p4):
    sysm, _ = p4
    row = solution_row(sysm, 0.3 + 0.4j)
    bal = row.balanced(0.0)
    assert np.max(np.abs(bal - np.hstack([0.5 * np.eye(2), 0.5 * np.eye(2)]))) < 1e-14
    left = row.left(0.0)
    assert np.max(np.abs(left - np.hstack([np.eye(2), np.zeros((2, 2))]))) < 1e-14
    # block vanishes away from its subinterval
    assert np.max(np.abs(row.balanced(-0.5)[:, 2:])) == 0.0
    assert np.max(np.abs(row.balanced(0.5)[:, :2])) == 0.0


def test_row_vectorized_evaluation_matches_scalar(p2):
    sysm, _ = p2
    row = solution_row(sysm, 1.3 + 0.2j)
    xs = np.array([0.3, 1.0, 2.0, 3.0])
    many = row.balanced_many(xs)
    for i, x in enumerate(xs):
        assert np.max(np.abs(many[i] - row.balanced(float(x)))) < 1e-13


def test_balanced_many_of_no_points(p2):
    sysm, _ = p2
    row = solution_row(sysm, 1.3 + 0.2j)
    assert row.balanced_many(np.array([])).shape == (0, 2, 2 * row.blocks)
    for fund in row.fundamentals:
        assert fund.balanced_many(np.array([])).shape == (0, 2, 2)
    u = solve_ivp(sysm, 0, 1.3 + 0.2j, 0.0, np.array([1.0, 0.0]))
    assert u.balanced_many(np.array([])).shape == (0, 2)


def test_forward_transform_p1_values(p1):
    sysm, _ = p1
    f = VectorFunction(lambda x: np.array([1.0, 0.0]))
    F0 = forward_transform_compact(sysm, f, 0.0)
    assert np.max(np.abs(F0 - np.array([np.pi, 0.0]))) < 1e-12
    for k in (1, 2, 3, 4):
        Fk = forward_transform_compact(sysm, f, float(k))
        expect = np.array([0.0, (1 - (-1) ** k) / k])
        assert np.max(np.abs(Fk - expect)) < 1e-12


def test_forward_transform_p4_balanced_atom(p4):
    sysm, _ = p4
    f = VectorFunction(lambda x: np.array([3.0, 7.0]))
    for lam in (1j, 0.0, 2.0):
        F = forward_transform_compact(sysm, f, lam)
        assert np.max(np.abs(F - np.array([3.0, 0.0, 3.0, 0.0]))) < 1e-14


def test_forward_transform_real_for_real_data(p2):
    sysm, _ = p2
    f = VectorFunction(lambda x: np.array([x, 1.0 - x]))
    F = forward_transform_compact(sysm, f, 1.5)
    assert np.max(np.abs(F.imag)) < 1e-12


def test_wronskian_defect_examples(p1, p2):
    assert wronskian_defect(p1[0], 0, 2 + 1j, 50) < 1e-9
    assert wronskian_defect(p2[0], 0, 1j, 50) < 1e-9
    sysm = SystemSpec(J=J2, q=MatrixMeasure.zero(2), w=MatrixMeasure.zero(2), interval=(0.0, 1.0))
    assert wronskian_defect(sysm, 0, 0.7, 20) == 0.0


def test_wronskian_polynomial_density_ode_path():
    # non-constant density exercises the Magnus flow
    sysm = SystemSpec(
        J=J2,
        q=MatrixMeasure(
            dim=2,
            segments=(Segment((0.0, 2.0), lambda x: np.diag([x * x, -x]), degree=2),),
        ),
        w=MatrixMeasure(
            dim=2,
            segments=(Segment((0.0, 2.0), lambda x: (1 + 0.5 * x) * np.eye(2), degree=1),),
        ),
        interval=(0.0, 2.0),
    )
    assert wronskian_defect(sysm, 0, 1.5 + 0.5j, 30) < 1e-9


def test_transform_kernel_dimension_is_lambda_independent(p4):
    from blockweyl.engine import Engine

    eng = Engine(p4[0])
    dims = []
    for lam in (0.0, 1j, 1 + 1j):
        gram = eng.gram(lam)
        s = np.linalg.svd(gram, compute_uv=False)
        dims.append(int(np.sum(s <= 1e-10 * max(s[0], 1.0))))
    assert dims == [3, 3, 3]


def stacked_calls(f, xs):
    return np.stack([f(float(x)) for x in xs])


EDGES = (-1.0, 0.25, 2.0)


@settings(max_examples=80, deadline=None)
@given(
    xs=st.lists(st.floats(-3.0, 3.0) | st.sampled_from(EDGES + (math.nan,)), min_size=1, max_size=30),
    inner=st.none() | st.sampled_from([(-1.0, 2.0), (0.25, 0.25), (0.25, 2.0), (-math.inf, 0.25)]),
    nested=st.booleans(),
    outer=st.sampled_from([None, (-1.0, 0.25), (-3.0, 3.0), (2.0, math.inf)]),
    k=st.floats(0.5, 20.0),
    shape=st.sampled_from([(), (2,), (2, 3)]),
    real=st.booleans(),
)
def test_many_is_bitwise_the_stacked_calls(xs, inner, nested, outer, k, shape, real):
    # supports with nodes on and outside their edges, NaN nodes, the nested
    # masked wrapper of forward_transform and the plain-callable loop
    def fn(x):
        val = np.full(shape, math.sin(k * x)) + x * np.arange(int(np.prod(shape))).reshape(shape)
        return val if real else val + 1j * math.cos(x)

    f = VectorFunction(fn, support=inner)
    if nested:
        f = VectorFunction(f, support=outer)
    xs = np.array(xs)
    for got, want in ((f.many(xs), stacked_calls(f, xs)),
                      (evaluate_many(fn, xs), np.stack([np.asarray(fn(float(x)), dtype=complex) for x in xs]))):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


def test_many_of_no_points():
    calls = []

    def fn(x):
        calls.append(x)
        return np.array([1.0, x])

    for f in (fn, VectorFunction(fn), VectorFunction(fn, support=(0.0, 1.0)),
              VectorFunction(VectorFunction(fn), support=(0.0, 1.0))):
        got = evaluate_many(f, np.array([]))
        assert got.dtype == complex and got.shape == (0,)
    assert calls == []


def test_drive_solve_calls_f_only_at_atoms(monkeypatch):
    # a drive through a non-constant weight with an atom at 0.5: the Magnus
    # coefficients sample f on whole arrays, the atom transfer at the atom
    sysm = SystemSpec(
        J=J2,
        q=MatrixMeasure(dim=2, segments=(Segment((0.0, 1.0), lambda x: np.diag([x, 1.0 - x * x]), degree=2),)),
        w=MatrixMeasure(dim=2, segments=(Segment((0.0, 1.0), lambda x: (1.0 + 0.5 * x) * np.eye(2), degree=1),),
                        atoms=((0.5, np.diag([2.0, 0.0])),)),
        interval=(0.0, 1.0),
    )
    points, sampled, call = [], [], VectorFunction.__call__

    def counted(self, x):
        points.append(x)
        return call(self, x)

    monkeypatch.setattr(VectorFunction, "__call__", counted)
    f = VectorFunction(lambda x: sampled.append(x) or np.array([1.0, np.cos(x)]))
    solve_ivp(sysm, 0, 2.7 + 0.4j, 0.0, np.array([1.0, 1.0]), f=f)
    assert set(points) == {0.5}
    assert len(sampled) > 100
