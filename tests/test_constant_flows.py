"""Constant stretches: one decomposition per system, the spectral parameter as a complex step."""

import json
import threading

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import J2
from test_magnus import stored
from blockweyl.cli import ProblemConfig
from blockweyl.config import resolve_config_path
from blockweyl.measures import MatrixMeasure, Segment
from blockweyl.propagation import (
    _PADE_THETA,
    _PencilFlow,
    _expm_stack,
    fundamental_matrix,
    solution_row,
    wronskian_defect,
)
from blockweyl.system import SystemSpec

KINDS = ("q-free", "w-free", "nilpotent", "degenerate-w", "near-defective", "both")


def _hermitian(draw, scale):
    re = draw(st.lists(st.floats(-scale, scale), min_size=3, max_size=3))
    im = draw(st.floats(-scale, scale))
    return np.array([[re[0], re[1] + 1j * im], [re[1] - 1j * im, re[2]]])


def _constant(matrix, length):
    if not np.any(matrix):
        return MatrixMeasure.zero(2)
    return MatrixMeasure(dim=2, segments=(Segment((0.0, length), lambda x, m=matrix: m, degree=0),))


@st.composite
def stretches(draw):
    """One constant stretch ``(0, length)`` of each kind, a parameter and an offset in it."""
    kind = draw(st.sampled_from(KINDS))
    length = draw(st.floats(0.5, 2.0))
    c = draw(st.floats(0.2, 1.5)) * draw(st.sampled_from([1.0, -1.0]))
    axis = np.diag([1.0, 0.0]) if draw(st.booleans()) else np.diag([0.0, 1.0])
    Q = W = np.zeros((2, 2))
    if kind == "q-free":
        root = _hermitian(draw, 1.0)
        W = root @ root + 0.1 * np.eye(2)
    elif kind == "w-free":
        Q = _hermitian(draw, 1.0)
    elif kind == "nilpotent":        # J^-1 q strictly triangular, as in P3
        Q = c * axis
    elif kind == "degenerate-w":     # J^-1 w nilpotent: the flow is linear in lam
        W = abs(c) * axis
    elif kind == "near-defective":   # eigenvalues +-1e-9: neither diagonal nor nilpotent
        Q = np.array([[0.0, 1e-9], [1e-9, c]])
    else:                            # both densities: one matrix per parameter
        Q, root = _hermitian(draw, 1.0), _hermitian(draw, 1.0)
        W = abs(c) * axis if draw(st.booleans()) else root @ root + 0.1 * np.eye(2)
    sysm = SystemSpec(J=J2, q=_constant(Q, length), w=_constant(W, length), interval=(0.0, length),
                      anchors=(0.0,))
    lam = complex(draw(st.floats(-80.0, 80.0)), draw(st.floats(-2.0, 2.0)))
    dx = length * draw(st.floats(0.0, 1.0))
    return kind, sysm, lam, dx, np.linalg.inv(J2) @ (lam * W - Q)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(stretches())
def test_constant_flow_matches_expm(case):
    kind, sysm, lam, dx, A = case
    U = fundamental_matrix(sysm, 0, lam)
    flow = U.pieces[0].flow
    assert isinstance(flow, _PencilFlow)
    expected = {"q-free": "diag", "nilpotent": "series", "degenerate-w": "series", "near-defective": "expm"}
    assert flow.kind == expected.get(kind, flow.kind)
    exact = expm(A * dx)
    for side in ("left", "right"):
        err = np.max(np.abs(getattr(U, side)(dx) - exact))
        assert err <= 1e-12 * max(1.0, np.max(np.abs(exact)))
    xs = np.linspace(0.0, dx, 6)[1:-1]
    if len(xs) and xs[0] > 0:
        many = U.balanced_many(xs)
        for x, value in zip(xs, many):
            exact = expm(A * x)
            assert np.max(np.abs(value - exact)) <= 1e-12 * max(1.0, np.max(np.abs(exact)))


# edges of the 1-norm ranges of Padé degrees 3, 5, 7, 9 and 13, then of squaring up to 50
NORM_EDGES = [0.0] + [theta for _, theta in _PADE_THETA] + [50.0]


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([2, 3, 4]),
    st.integers(0, 4),
    st.integers(0, len(NORM_EDGES) - 2),
    st.floats(0.0, 1.0),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_expm_stack_matches_expm(n, count, branch, position, with_zero, seed):
    # the stack's largest 1-norm picks the degree, so each draw sits in one
    # degree's range or beyond theta_13; a zero matrix rides along in any stack
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    norms = np.abs(A).sum(axis=-2).max(axis=-1)
    target = NORM_EDGES[branch] + position * (NORM_EDGES[branch + 1] - NORM_EDGES[branch])
    shares = rng.uniform(0.1, 1.0, count)
    shares[:1] = 1.0
    A *= (target * shares / norms)[:, None, None]
    if with_zero or not count:
        A = np.insert(A, rng.integers(0, count + 1), 0.0, axis=0)
    E = _expm_stack(A)
    for a, e in zip(A, E):
        if not a.any():
            assert np.array_equal(e, np.eye(n))
            continue
        exact = expm(a)
        assert np.max(np.abs(e - exact)) <= 1e-13 * np.max(np.abs(exact))
    if target <= 1.0:  # beyond, the product loses cond(exp A) times roundoff
        assert np.max(np.abs(_expm_stack(-A) @ E - np.eye(n))) <= 1e-14


def test_both_densities_near_a_defective_matrix_match_expm():
    # at lam = 0 the stretch matrix has eigenvalues +-3e-8: an eigenbasis with
    # cond(V) ~ 1e7 is about 1e-9 off, so the parameter takes expm; lam = 2 + i
    # in the same batch takes diag
    Q, W = np.array([[0.0, 3e-8], [3e-8, -1.0]]), np.diag([1.0, 0.0])
    sysm = SystemSpec(J=J2, q=_constant(Q, 1.0), w=_constant(W, 1.0), interval=(0.0, 1.0), anchors=(0.0,))
    lams = np.array([0.0, 2.0 + 1.0j])
    U = fundamental_matrix(sysm, 0, lams)
    assert U.pieces[0].flow.kind == "diag+expm"
    xs = np.array([1e-6, 0.5])
    for i, lam in enumerate(lams):
        single = U[i]
        for x, many in zip(xs, single.balanced_many(xs)):
            exact = expm(np.linalg.inv(J2) @ (lam * W - Q) * x)
            for value in (U.balanced(x)[i], single.balanced(x), many):
                assert np.max(np.abs(value - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_wronskian_at_roundoff_on_constant_stretches(p1, p2, p3):
    for sysm, _ in (p1, p2, p3):
        for lam in (2 + 1j, 1j, 7.3 + 0.2j, 40 + 0.5j):
            assert wronskian_defect(sysm, 0, lam, 50) <= 1e-12


def test_zero_step_is_the_exact_identity():
    # at lam = 0 the step lam dx of a q-free stretch vanishes inside a batch
    sysm = ProblemConfig.load("P1").system
    row = solution_row(sysm, np.array([0.0, 1.0 + 1.0j]))
    for x in np.linspace(0.0, np.pi, 7)[1:-1]:
        assert np.array_equal(row.balanced(x)[0], np.eye(2))
    assert np.array_equal(row[0].balanced_many(np.linspace(0.1, 3.0, 5)), np.broadcast_to(np.eye(2), (5, 2, 2)))


def test_the_system_owns_one_flow_per_density_pair():
    # P3's anchor and its w atom split the q density into three stretches
    sysm = ProblemConfig.load("P3").system
    assert stored(sysm, "flow") == {}
    rows = [solution_row(sysm, lams) for lams in (np.array([0.5, 2.0 + 1j]), 3.0, np.linspace(-2, 2, 9))]
    (entry,) = stored(sysm, "flow").values()
    assert entry.kind == "series"
    flows = [piece.flow for row in rows for fund in row.fundamentals for piece in fund.pieces]
    assert len(flows) == 9 and all(flow.groups is entry.groups for flow in flows)


def test_filling_the_table_from_threads_stores_one_flow():
    sysm = ProblemConfig.load("P1").system
    lams = [np.linspace(-3.0, 3.0, 7) + 0.1j * k for k in range(8)]
    serial = [solution_row(ProblemConfig.load("P1").system, lam).balanced(1.0) for lam in lams]
    barrier = threading.Barrier(4, timeout=60)
    results = [None] * len(lams)

    def work(k):
        barrier.wait()
        for i in range(k, len(lams), 4):
            results[i] = solution_row(sysm, lams[i]).balanced(1.0)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert len(stored(sysm, "flow")) == 1
    for one, other in zip(serial, results):
        assert np.array_equal(one, other)


def test_constant_density_with_trailing_zero_coefficients(tmp_path):
    # P1 with w written as 1 + 0 x: a constant density, not a degree-1 one
    raw = json.loads(resolve_config_path("P1").read_text())
    for seg in raw["w"]["segments"]:
        seg["coeffs"] = [[entry + [[0.0, 0.0]] for entry in row] for row in seg["coeffs"]]
    path = tmp_path / "p1_padded.json"
    path.write_text(json.dumps(raw))
    padded = ProblemConfig.load(path).system
    assert [seg.degree for seg in padded.w.segments] == [0]
    lam = 40 + 0.5j
    row = solution_row(padded, lam)
    assert all(isinstance(p.flow, _PencilFlow) for fund in row.fundamentals for p in fund.pieces)
    plain = solution_row(ProblemConfig.load("P1").system, lam)
    for x in (0.0, 1.0, np.pi):
        assert np.array_equal(row.balanced(x), plain.balanced(x))

    raw["w"]["segments"][0]["coeffs"][0][0] = [[1.0, 0.0], [0.5, 0.0], [0.0, 0.0]]
    path.write_text(json.dumps(raw))
    assert [seg.degree for seg in ProblemConfig.load(path).system.w.segments] == [1]
