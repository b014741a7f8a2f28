"""The sixth-order Magnus flow on stretches with non-constant coefficients."""

import sys
import threading

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebvander

from conftest import J2
from blockweyl import propagation
from blockweyl.assembly import norm_zero_space
from blockweyl.config import ProblemConfig
from blockweyl.engine import Engine
from blockweyl.errors import AccuracyError
from blockweyl.measures import MatrixMeasure, Segment, Tolerances
from blockweyl.propagation import VectorFunction, fundamental_matrix, solution_row, solve_ivp, wronskian_defect
from blockweyl.spectral import ResolventFunction
from blockweyl.system import DERIVED_CAPACITY, SystemSpec, jump_matrices

LENGTH = 1.5
# skew-hermitian; its inverse [[-3i, 1], [-1, -2i]] / 5 has no entry that multiplies exactly
J_GENERAL = np.array([[2j, 1.0], [-1.0, 3j]])
ANCHOR = 0.6
W_LINEAR = Segment((0.0, LENGTH), lambda x: (1.0 + 0.5 * x) * np.eye(2), degree=1)


def smooth_system(q_coeffs, *, tols=Tolerances(), atoms=()) -> SystemSpec:
    """``w = (1 + x/2) I`` and a ``q`` density: the polynomial with ``q_coeffs``
    (ascending, symmetric 2x2 each) or, for None, ``diag(sin 3x, cos x)``;
    ``atoms`` are ``q`` atoms."""
    if q_coeffs is None:
        q_seg = Segment((0.0, LENGTH), lambda x: np.diag([np.sin(3 * x), np.cos(x)]))
    else:
        c = np.asarray(q_coeffs, dtype=float)
        q_seg = Segment((0.0, LENGTH), lambda x: sum(ck * x**k for k, ck in enumerate(c)), degree=len(c) - 1)
    return SystemSpec(
        J=J2,
        q=MatrixMeasure(dim=2, segments=(q_seg,), atoms=atoms),
        w=MatrixMeasure(dim=2, segments=(W_LINEAR,)),
        interval=(0.0, LENGTH),
        tols=tols,
    )


def reference(sysm, lam, x0, Y0, xs, drive=None):
    """DOP853 at ``rtol=1e-13`` from ``(x0, Y0)`` to the points ``xs`` on one side of ``x0``."""
    shape = np.shape(Y0)

    def rhs(x, y):
        A = sysm.J_inv @ (lam * sysm.w.density_at(x) - sysm.q.density_at(x))
        out = A @ y.reshape(shape)
        if drive is not None:
            out = out + sysm.J_inv @ sysm.w.density_at(x) @ drive(x)
        return out.reshape(-1)

    end = max(xs, key=lambda x: abs(x - x0))
    sol = scipy.integrate.solve_ivp(
        rhs, (x0, end), np.asarray(Y0, dtype=complex).reshape(-1),
        method="DOP853", rtol=1e-13, atol=1e-15, dense_output=True,
    )
    assert sol.success
    return [sol.sol(x).reshape(shape) for x in xs]


def assert_close(value, ref, rel=1e-9):
    assert np.max(np.abs(value - ref)) <= rel * np.max(np.abs(ref))


symmetric = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(lambda t: [[t[0], t[1]], [t[1], t[2]]])
q_coefficients = st.one_of(st.none(), st.lists(symmetric, min_size=1, max_size=3))
spectral_parameters = st.builds(
    complex, st.floats(-15.0, 15.0), st.one_of(st.just(0.0), st.floats(0.25, 2.0))
)


@settings(max_examples=25, deadline=None)
@given(
    q_coefficients,
    spectral_parameters,
    st.lists(st.floats(0.01, LENGTH - 0.01), min_size=3, max_size=3),
)
def test_rows_match_tight_dop853(q_coeffs, lam, interior):
    sysm = smooth_system(q_coeffs)
    U = fundamental_matrix(sysm, 0, lam, anchor=ANCHOR)
    eye = np.eye(2, dtype=complex)
    for side in ([0.0] + [x for x in interior if x < ANCHOR], [LENGTH] + [x for x in interior if x > ANCHOR]):
        for x, ref in zip(side, reference(sysm, lam, ANCHOR, eye, side)):
            assert_close(U(x), ref)


@pytest.mark.parametrize("lam", [1.5 + 0.5j, -9.0 + 2.0j, 14.0 + 0.25j, 6.0])
@pytest.mark.parametrize("q_coeffs", [None, [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, -1.0]], [[1.0, 0.0], [0.0, 0.0]]]],
                         ids=["sin-cos", "polynomial"])
def test_wronskian_at_roundoff(q_coeffs, lam):
    # lam and conj(lam) share their meshes, so the identity does not see the tolerance
    assert wronskian_defect(smooth_system(q_coeffs), 0, lam, 30, anchor=ANCHOR) <= 1e-12


def test_wronskian_at_roundoff_on_quadratic_density():
    # also on a J whose inverse rounds, so that the fits premultiplied by it
    # are not those of a signed permutation
    for J in (J2, J_GENERAL):
        sysm = SystemSpec(
            J=J,
            q=MatrixMeasure(dim=2, segments=(Segment((0.0, 2.0), lambda x: np.diag([x * x, -x]), degree=2),)),
            w=MatrixMeasure(dim=2, segments=(Segment((0.0, 2.0), lambda x: (1 + 0.5 * x) * np.eye(2), degree=1),)),
            interval=(0.0, 2.0),
        )
        assert wronskian_defect(sysm, 0, 1.5 + 0.5j, 30) <= 1e-12


@pytest.mark.parametrize("J", [J2, J_GENERAL], ids=["P1", "general"])
def test_stretch_coefficients_read_fits_premultiplied_by_J_inverse(J):
    # lam (J^-1 w) - J^-1 q and (J^-1 w) f from fits premultiplied once per
    # stretch: bitwise J^-1 (lam w - q) and J^-1 w f of the plain fits where
    # J^-1 has entries 0 and +-1, within a few ulps of their scale otherwise
    q = MatrixMeasure(dim=2, segments=(
        Segment((0.0, LENGTH), lambda x: np.array([[x * x, 0.5 - x], [0.5 - x, -x]]), degree=2),))
    w = MatrixMeasure(dim=2, segments=(
        Segment((0.0, LENGTH), lambda x: np.array([[1.0 + x, 0.25 * x], [0.25 * x, 1.5]]), degree=1),))
    sysm = SystemSpec(J=J, q=q, w=w, interval=(0.0, LENGTH))
    f = VectorFunction(lambda x: np.array([1.0 + x, np.cos(x)]))
    coeff = propagation._StretchCoefficients(sysm, 0.0, LENGTH, f)
    xs, lam = np.linspace(0.0, LENGTH, 13), -7.3 + 0.4j
    t = (xs - 0.5 * LENGTH) / (0.5 * LENGTH)
    qs, ws = ((chebvander(t, len(fit) - 1) @ fit).reshape(-1, 2, 2) for fit in propagation._fitted(sysm, 0.0, LENGTH))
    fs = np.array([f(x) for x in xs])[..., None]
    A = coeff.at(lam, xs)
    ref = np.concatenate([sysm.J_inv @ (lam * ws - qs), sysm.J_inv @ (ws @ fs)], axis=-1)
    if J is J2:
        assert np.array_equal(A, ref)
    scale = np.abs(sysm.J_inv) @ np.concatenate([abs(lam) * np.abs(ws) + np.abs(qs), np.abs(ws) @ np.abs(fs)], axis=-1)
    assert np.all(np.abs(A - ref) <= 4 * np.finfo(float).eps * scale)


def test_inhomogeneous_solve_on_smooth_stretch():
    # a drive f through a non-constant weight with an atom: the augmented flow
    # matches the reference before the atom and meets the jump condition at it
    atom = np.diag([2.0, 0.0])
    sysm = SystemSpec(
        J=J2,
        q=MatrixMeasure(dim=2, segments=(Segment((0.0, 1.0), lambda x: np.diag([x, 1.0 - x * x]), degree=2),)),
        w=MatrixMeasure(dim=2, segments=(Segment((0.0, 1.0), lambda x: (1.0 + 0.5 * x) * np.eye(2), degree=1),),
                        atoms=((0.5, atom),)),
        interval=(0.0, 1.0),
    )
    f = VectorFunction(lambda x: np.array([1.0, np.cos(x)]))
    lam = 2.7 + 0.4j
    u0 = np.array([1.0, 1.0])
    sol = solve_ivp(sysm, 0, lam, 0.0, u0, f=f)
    xs = [0.2, 0.35, 0.5]
    for x, ref in zip(xs, reference(sysm, lam, 0.0, u0, xs, drive=f)):
        assert_close(sol.left(x), ref)
    bm, bp = jump_matrices(sysm, 0.5, lam)
    resid = bp @ sol.right(0.5) - bm @ sol.left(0.5) - atom @ f(0.5)
    assert np.max(np.abs(resid)) < 1e-10


def test_mesh_cap_raises_accuracy_error():
    # no mesh reaches a tolerance below roundoff: refinement stops at the cap
    sysm = smooth_system(None, tols=Tolerances(ode_rtol=1e-30, ode_atol=0.0))
    with pytest.raises(AccuracyError, match="Magnus mesh"):
        fundamental_matrix(sysm, 0, 2.0 + 1.0j, anchor=ANCHOR)


def test_conjugate_parameters_share_their_mesh():
    # on a complex 4x4 system the Richardson estimates of lam and conj(lam)
    # differ by up to 40%; the mesh test takes the larger, so no tolerance of
    # a fine sweep separates the two and the Wronskian stays at roundoff
    rng = np.random.default_rng(7)
    herm = [(lambda m: 0.3 * (m + m.conj().T))(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            for _ in range(3)]
    q = MatrixMeasure(dim=4, segments=(Segment((0.0, 1.0), lambda x: herm[0] + herm[1] * x + herm[2] * x * x,
                                               degree=2),))
    w = MatrixMeasure(dim=4, segments=(Segment((0.0, 1.0), lambda x: (1.0 + 0.5 * x) * np.eye(4), degree=1),))
    for rtol in np.geomspace(1e-10, 1e-7, 61):
        sysm = SystemSpec(J=np.kron(np.eye(2), J2), q=q, w=w, interval=(0.0, 1.0),
                          tols=Tolerances(ode_rtol=float(rtol), ode_atol=0.0))
        assert wronskian_defect(sysm, 0, 3.0 + 1.0j, 5, anchor=0.0) <= 1e-12


@pytest.mark.parametrize("start, drive", [("vector", True), ("vector", False), ("matrix", False), ("column", True)])
def test_dense_output_at_mesh_nodes_returns_the_stored_values(start, drive):
    # 1 + |lam| = 2.58 gives 8 steps a priori on (0, 1), so every mesh step is
    # a power of two and each node is hit with a sub-step of exactly zero
    sysm = SystemSpec(
        J=J2,
        q=MatrixMeasure(dim=2, segments=(Segment((0.0, 1.0), lambda x: np.diag([x, 1.0 - x * x]), degree=2),)),
        w=MatrixMeasure(dim=2, segments=(Segment((0.0, 1.0), lambda x: (1.0 + 0.5 * x) * np.eye(2), degree=1),)),
        interval=(0.0, 1.0),
    )
    lam = 1.5 + 0.5j
    u0 = {"vector": np.array([1.0, -0.5]), "matrix": np.eye(2), "column": np.zeros((2, 1))}[start]
    f = VectorFunction(lambda x: np.array([1.0, np.cos(x)])) if drive else None
    sol = solve_ivp(sysm, 0, lam, 0.0, u0, f=f)
    (mesh,) = sol.pieces[0].meshes
    assert mesh.h == 2.0 ** np.round(np.log2(mesh.h))
    nodes = mesh.x0 + mesh.h * np.arange(1, len(mesh.values) - 1)
    stored = mesh.values[1:-1, :2]
    assert stored.shape == (len(nodes),) + np.shape(u0)
    assert np.array_equal(sol.balanced_many(nodes), stored)
    assert all(np.array_equal(sol(float(x)), value) for x, value in zip(nodes, stored))
    if not drive:  # off the nodes, the solution is the fundamental matrix times u0
        mid = nodes[:-1] + 0.5 * mesh.h
        U = fundamental_matrix(sysm, 0, lam, anchor=0.0)
        assert_close(sol.balanced_many(mid), U.balanced_many(mid) @ u0, rel=1e-13)


def stored(sysm, kind):
    """The values of one kind in the system's store, by the rest of their key."""
    return {key[1:]: value for key, value in sysm.derived.peek(list(sysm.derived)).items() if key[0] == kind}


def test_stretch_fits_made_once_per_system(monkeypatch):
    # the density fits of a stretch are made on its first solve and reused by
    # later solves, with or without a drive, bitwise as a fresh fit would give
    made = []
    fits = propagation._stretch_fits

    def counted(sysm, lo, hi):
        made.append((lo, hi))
        return fits(sysm, lo, hi)

    monkeypatch.setattr(propagation, "_stretch_fits", counted)
    q_coeffs = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, -1.0]], [[1.0, 0.0], [0.0, 0.0]]]
    sysm = smooth_system(q_coeffs)
    f = VectorFunction(lambda x: np.array([1.0, np.cos(x)]))
    u0 = np.array([1.0, 1.0])
    solves = [(lam, drive) for lam in (2.7 + 0.4j, -1.0 + 2.0j) for drive in (None, f)]
    values = [solve_ivp(sysm, 0, lam, ANCHOR, u0, f=drive).left(0.3) for lam, drive in solves]
    # the anchor splits the segment into two stretches, fitted once each
    assert sorted(made) == sorted(stored(sysm, "fit")) == [(0.0, ANCHOR), (ANCHOR, LENGTH)]
    for (lam, drive), value in zip(solves, values):
        fresh = solve_ivp(smooth_system(q_coeffs), 0, lam, ANCHOR, u0, f=drive).left(0.3)
        assert np.array_equal(value, fresh)


def test_stretch_fits_stay_bounded_under_many_drives():
    # each drive supported on (0, t) splits P1's interval at a new t; the fits
    # of those stretches make way for newer ones, and a stretch fitted again
    # gets the fit it had
    cfg = ProblemConfig.load("P1")
    sysm, bc = cfg.system, cfg.boundary
    eng = Engine(sysm, bc)

    def resolvent(t):
        f = VectorFunction(lambda x: np.array([1.0, 0.0]), support=(0.0, t))
        return ResolventFunction(sysm, bc, 1j, f, engine=eng)

    first = resolvent(0.5).value(0.25)
    for t in np.linspace(0.6, 3.0, 40):
        resolvent(float(t))
        assert len(sysm.derived) <= DERIVED_CAPACITY
    assert ("fit", 0.0, 0.5) not in sysm.derived
    assert np.array_equal(resolvent(0.5).value(0.25), first)


def test_stretch_fits_evicted_from_threads_match_a_serial_run():
    # four threads share one system and its engine, and push out each other's
    # fits; every resolvent is bitwise the one a serial run builds
    ts = np.linspace(0.3, 3.0, 2 * DERIVED_CAPACITY)
    f = [VectorFunction(lambda x: np.array([1.0, 0.0]), support=(0.0, float(t))) for t in ts]
    bc = ProblemConfig.load("P1").boundary
    serial_sys, sysm = (ProblemConfig.load("P1").system for _ in range(2))
    serial = [ResolventFunction(serial_sys, bc, 1j, fk).value(0.25) for fk in f]
    eng = Engine(sysm, bc)
    barrier = threading.Barrier(4, timeout=60)
    results = [None] * len(f)

    def work(k):
        barrier.wait()
        for i in range(k, len(f), 4):
            results[i] = ResolventFunction(sysm, bc, 1j, f[i], engine=eng).value(0.25)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that races show
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(sysm.derived) <= DERIVED_CAPACITY
    for got, want in zip(results, serial, strict=True):
        assert np.array_equal(got, want)


def assert_same_row(row, alone):
    """Bitwise equal rows: stored limits, Magnus meshes and values between the breakpoints."""
    for fund, single in zip(row.fundamentals, alone.fundamentals, strict=True):
        for a, b in zip(fund.left_values + fund.right_values, single.left_values + single.right_values, strict=True):
            assert np.array_equal(a, b)
        for piece, ref in zip(fund.pieces, single.pieces, strict=True):
            if ref.meshes is not None:
                (mesh,), (ref_mesh,) = piece.meshes, ref.meshes
                assert mesh.h == ref_mesh.h and np.array_equal(mesh.values, ref_mesh.values)
    a, b = row.sys.interval
    xs = np.linspace(a, b, 9)[1:-1] + 1e-3
    assert np.array_equal(row.balanced_many(xs), alone.balanced_many(xs))


@settings(max_examples=20, deadline=None)
@given(q_coefficients, spectral_parameters, spectral_parameters)
def test_rows_built_together_are_the_rows_built_alone(q_coeffs, lam, other):
    # lam, conj(lam) and an unrelated parameter share their rounds; each
    # keeps its steps and Padé orders, so nothing moves by a bit
    sysm = smooth_system(q_coeffs, atoms=((1.1, np.diag([0.5, -0.25])),))
    lams = np.array([lam, np.conj(lam), other])
    together = solution_row(sysm, lams, anchors=[ANCHOR])
    for i, one in enumerate(lams):
        assert_same_row(together[i], solution_row(sysm, one, anchors=[ANCHOR]))


def test_mixed_parameters_keep_their_own_steps_and_pade_orders(monkeypatch):
    orders = []
    expm = propagation._expm_stack

    def recorded(A, order=None):
        orders.append(order)
        return expm(A, order)

    monkeypatch.setattr(propagation, "_expm_stack", recorded)
    sysm = smooth_system(None)
    lams = np.array([0.3 + 0.25j, 0.3 - 0.25j, 14.0 + 2.0j, -9.0 + 0.5j])
    together = solution_row(sysm, lams, anchors=[ANCHOR])
    monkeypatch.undo()
    steps = {len(piece.meshes[i].values) for piece in together.fundamentals[0].pieces for i in range(len(lams))}
    assert len(steps) > 2 and len(set(orders)) > 1
    for i, lam in enumerate(lams):
        assert_same_row(together[i], solution_row(sysm, lam, anchors=[ANCHOR]))


@pytest.mark.parametrize("name", ["p1", "p2", "p3", "p4"])
def test_rows_built_together_on_shipped_problems(name, request):
    sysm, _ = request.getfixturevalue(name)
    lams = np.array([1.3 + 0.7j, 1.3 - 0.7j, -6.0 + 0.25j, 2.0])
    together = solution_row(sysm, lams)
    for i, lam in enumerate(lams):
        assert_same_row(together[i], solution_row(sysm, lam))


def first_steps(lo, hi, lam):
    """The a-priori step count ``N`` of a mesh on the stretch ``(lo, hi)`` at ``lam``."""
    span = (hi - lo) * (1.0 + abs(lam))
    return min(max(2, int(np.ceil(span * propagation._STEPS_PER_UNIT))), propagation._MAX_STEPS // 2)


def doublings(row, lams):
    """``(piece, lam, mesh, N, j)`` per Magnus mesh of the row's first block, ``2^j N`` its step count."""
    out = []
    for piece in row.fundamentals[0].pieces:
        for lam, mesh in zip(lams, piece.meshes, strict=True):
            N = first_steps(piece.lo, piece.hi, lam)
            j = int(np.log2((len(mesh.values) - 1) / N))
            assert len(mesh.values) - 1 == 2**j * N
            out.append((piece, lam, mesh, N, j))
    return out


def transfer_pair(coeff, lam, x_from, x_to, count):
    """The transfer of a stretch on a mesh of ``count`` steps and its pair at
    ``conj(lam)``: what the Richardson test of a mesh reads."""
    h = (x_to - x_from) / count
    A = coeff.at(lam, (x_from + h * (np.arange(count)[:, None] + propagation._GAUSS)).ravel())
    E = propagation._expm_stack(propagation._magnus_exponents(A.reshape(count, 3, coeff.n, -1), np.full(count, h)))
    ends = propagation._transfer_pairs(propagation._total_products(E[None]), coeff.sys.J, coeff.sys.J_inv)
    return tuple(end[0] for end in ends)


def round_sizes(meshes):
    """Steps per round of :func:`doublings`' meshes: each mesh at ``N`` and
    ``2N`` in the first, at ``2^(r+1) N`` in round ``r`` while ``r < j``."""
    return [sum(3 * N if r == 0 else 2 ** (r + 1) * N for *_, N, j in meshes if j > r)
            for r in range(max(j for *_, j in meshes))]


def test_smooth_row_takes_one_exponent_call_per_round(monkeypatch):
    # a q atom and the anchor cut the segment into three stretches; the row
    # at lam and conj(lam) builds its six meshes in shared rounds: the first
    # takes every mesh at N and 2N steps, each later one the next doubling
    # of the meshes not yet accepted
    calls = []
    exponents = propagation._magnus_exponents

    def counted(A, h):
        calls.append(len(A))
        return exponents(A, h)

    monkeypatch.setattr(propagation, "_magnus_exponents", counted)
    lams = np.array([4.0 + 1.0j, 4.0 - 1.0j])
    sysm = smooth_system(None, atoms=((1.1, np.diag([0.5, -0.25])),))
    meshes = doublings(solution_row(sysm, lams, anchors=[ANCHOR]), lams)
    assert len(meshes) == 6 and min(j for *_, j in meshes) >= 2
    assert calls == round_sizes(meshes)


def test_meshes_past_the_first_doubling_take_the_first_count_that_passes(monkeypatch):
    # fewer a-priori steps push the meshes to a third round and beyond; each
    # mesh is the first 2^j N (j >= 1) whose transfer pair passes against the
    # one at 2^(j-1) N, and the rows built together stay the rows built alone
    calls = []
    exponents = propagation._magnus_exponents

    def counted(A, h):
        calls.append(len(A))
        return exponents(A, h)

    monkeypatch.setattr(propagation, "_magnus_exponents", counted)
    monkeypatch.setattr(propagation, "_STEPS_PER_UNIT", 0.75)
    sysm = smooth_system(None, atoms=((1.1, np.diag([0.5, -0.25])),))
    lams = np.array([4.0 + 1.0j, 4.0 - 1.0j, -9.0 + 0.5j])
    together = solution_row(sysm, lams, anchors=[ANCHOR])
    meshes = doublings(together, lams)
    assert min(j for *_, j in meshes) >= 3 and len({j for *_, j in meshes}) > 1  # some go on alone
    assert calls == round_sizes(meshes)
    for piece, lam, mesh, N, j in meshes:
        coeff = propagation._StretchCoefficients(sysm, piece.lo, piece.hi, None)
        x_to = piece.lo if mesh.x0 == piece.hi else piece.hi
        pairs = [transfer_pair(coeff, lam, mesh.x0, x_to, 2**i * N) for i in range(j + 1)]
        passes = [propagation._refined(fine, coarse, sysm.tols) for coarse, fine in zip(pairs, pairs[1:])]
        assert passes[-1] and not any(passes[:-1])
    for i, lam in enumerate(lams):
        assert_same_row(together[i], solution_row(sysm, lam, anchors=[ANCHOR]))


def random_stack(rng, shape, complex_):
    X = rng.standard_normal(shape) * np.exp(rng.uniform(-3.0, 3.0, shape))
    return X + 1j * rng.standard_normal(shape) if complex_ else X


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 40), st.booleans(), st.booleans(), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_small_matmul_matches_matmul(n, k, length, shared, x_complex, y_complex, seed):
    # (n, n) x (L, n, n) or (L, n, n) x (L, n, k); each entry within a few
    # ulps of the sum of |products| of its inner index
    rng = np.random.default_rng(seed)
    X = random_stack(rng, (n, n) if shared else (length, n, n), x_complex)
    Y = random_stack(rng, (length, n, n if shared else k), y_complex)
    out = propagation._small_matmul(X, Y)
    assert out.shape == np.broadcast_shapes(X.shape[:-1] + (1,), Y.shape[:-2] + (1, Y.shape[-1]))
    bound = 4 * n * np.finfo(float).eps * (np.abs(X) @ np.abs(Y))
    assert np.all(np.abs(out - X @ Y) <= bound)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 301), st.booleans(), st.integers(0, 2**32 - 1))
@example(n=1, length=1, complex_=True, seed=60)  # a 1x1 product taken with a shared left factor
def test_small_matmul_of_a_stack_is_bitwise_that_of_its_parts(n, length, complex_, seed):
    # what the lockstep meshes rest on: a product does not depend on the
    # stack it is taken in
    rng = np.random.default_rng(seed)
    X, Y = random_stack(rng, (length, n, n), complex_), random_stack(rng, (length, n, n), complex_)
    out = propagation._small_matmul(X, Y)
    start, stop = sorted(rng.integers(0, length + 1, 2))
    step = int(rng.integers(1, 4))
    assert np.array_equal(propagation._small_matmul(X[start:stop:step], Y[start:stop:step]), out[start:stop:step])
    for i in range(length):
        assert np.array_equal(propagation._small_matmul(X[i], Y[i]), out[i])
    shared = propagation._small_matmul(X[0], Y)
    assert all(np.array_equal(propagation._small_matmul(X[0], Y[i]), shared[i]) for i in range(length))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 200), st.integers(1, 3), st.integers(2, 3), st.integers(0, 2**32 - 1))
def test_total_products_are_the_last_prefix_products(steps, meshes, d, seed):
    rng = np.random.default_rng(seed)
    E = np.eye(d) + 0.2 * random_stack(rng, (meshes, steps, d, d), True)
    assert np.array_equal(propagation._total_products(E), propagation._prefix_products(E)[:, -1])


def test_full_scan_runs_once_per_accepted_mesh(monkeypatch):
    # each job's mesh at N steps gets only its transfer; every compared mesh,
    # at 2N steps or more, gets its full scan at once, and no mesh is
    # scanned twice, so an accepted mesh is never scanned again
    scanned, totalled, compared, first, accepted = [], [], [], [], []
    scan, total, meshes = propagation._prefix_products, propagation._total_products, propagation._magnus_meshes

    def counted_scan(E):
        scanned.extend(E)
        return scan(E)

    def counted_total(E):
        totalled.extend(len(e) for e in E)
        return total(E)

    def counted_meshes(jobs, tols):
        out = meshes(jobs, tols)
        accepted.append(sum(not isinstance(mesh, AccuracyError) for mesh in out))
        for (_, lam, x_from, x_to), (_, M) in zip(jobs, out):
            N = first_steps(min(x_from, x_to), max(x_from, x_to), lam)
            first.append(N)
            compared.extend(2**i * N for i in range(1, int(np.log2((len(M) - 1) / N)) + 1))
        return out

    monkeypatch.setattr(propagation, "_prefix_products", counted_scan)
    monkeypatch.setattr(propagation, "_total_products", counted_total)
    monkeypatch.setattr(propagation, "_magnus_meshes", counted_meshes)
    sysm = smooth_system(None, atoms=((1.1, np.diag([0.5, -0.25])),))
    row = solution_row(sysm, np.array([4.0 + 1.0j, 4.0 - 1.0j, -9.0 + 0.5j]), anchors=[ANCHOR])
    solve_ivp(sysm, 0, 2.0 + 0.5j, ANCHOR, np.array([1.0, 0.0]), f=VectorFunction(lambda x: np.array([x, 1.0])))
    assert len(row.fundamentals[0].pieces) == 3
    assert accepted == [9, 3]
    assert sorted(totalled) == sorted(first)
    assert sorted(len(E) for E in scanned) == sorted(compared)
    assert len({E.tobytes() for E in scanned}) == len(scanned)


def mp_expm_column(augmented: np.ndarray, dps: int = 40) -> np.ndarray:
    """The last column's top rows of ``exp(augmented)``, by ``mpmath.expm`` at ``dps`` digits."""
    import mpmath as mp

    with mp.workdps(dps):
        E = mp.expm(mp.matrix([[mp.mpc(complex(v)) for v in row] for row in augmented]))
        return np.array([complex(E[i, augmented.shape[0] - 1]) for i in range(augmented.shape[0] - 1)])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 50), st.floats(-3.0, 0.5), st.floats(-6.0, 6.0), st.integers(0, 2**32 - 1))
@example(n=4, length=31, log_size=0.5, log_beta=0.0, seed=227190)
@example(n=4, length=37, log_size=0.0, log_beta=0.0, seed=4)
def test_expm_column_matches_the_augmented_exponential(n, length, log_size, log_beta, seed):
    # a drive column b on top rows [A | b]: the last column of exp([[A, b], [0, 0]]),
    # while the n x n block stays bitwise the exponential of A alone.  Where
    # scipy's exponential is itself more than the bound from the column (at
    # norms near 100 each is ~7e-14 from the exact one), the column is judged
    # against a 40-digit mpmath exponential instead, to the same bound
    rng = np.random.default_rng(seed)
    A = 10.0**log_size * random_stack(rng, (length, n, n), True) * np.exp(-rng.uniform(0.0, 3.0))
    b = 10.0**log_beta * random_stack(rng, (length, n, 1), True)
    E = propagation._expm_stack(np.concatenate([A, b], axis=-1))
    assert np.array_equal(E[..., :n], propagation._expm_stack(A))
    for Ai, bi, Ei in zip(A, b, E):
        augmented = np.zeros((n + 1, n + 1), dtype=complex)
        augmented[:n, :n], augmented[:n, n:] = Ai, bi
        ref = scipy.linalg.expm(augmented)[:n, n]
        if np.max(np.abs(Ei[:, n] - ref)) > 1e-13 * np.max(np.abs(ref)):
            ref = mp_expm_column(augmented)
        assert np.max(np.abs(Ei[:, n] - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_resolvent_forms_no_augmented_stack_and_one_mesh_pass_per_block(monkeypatch):
    # the drive rides on the n x n steps of its row as a column: no kernel sees
    # an (n + 1) x (n + 1) matrix, and the rows at lam and conj(lam) and the
    # drive of each block are meshed in one pass
    shapes, passes = [], []
    matmul, meshes = propagation._small_matmul, propagation._magnus_meshes

    def recorded(X, Y):
        shapes.extend((X.shape[-2:], Y.shape[-2:]))
        return matmul(X, Y)

    def counted(jobs, tols):
        passes.append(sorted({(complex(lam), coeff.f is not None) for coeff, lam, *_ in jobs}, key=str))
        return meshes(jobs, tols)

    sysm = smooth_system(None, atoms=((1.1, np.diag([0.5, -0.25])),))
    bc = ProblemConfig.load("P1").boundary
    eng = Engine(sysm, bc)
    norm_zero_space(sysm, engine=eng)  # its rows at 0 are not the resolvent's
    monkeypatch.setattr(propagation, "_small_matmul", recorded)
    monkeypatch.setattr(propagation, "_magnus_meshes", counted)
    lam = 2.0 + 0.5j
    R = ResolventFunction(sysm, bc, lam, VectorFunction(lambda x: np.array([1.0, x])), engine=eng)
    R.many(np.linspace(0.1, 1.4, 7))
    assert len(passes) == eng.block_count
    assert all(p == sorted({(lam, False), (np.conj(lam), False), (lam, True)}, key=str) for p in passes)
    assert shapes and (3, 3) not in shapes and {(2, 2), (2, 3)} <= set(shapes)


@pytest.mark.parametrize("case", ["P1", "split"])
def test_drive_without_a_row_mesh_matches_dop853(case):
    # P1's stretch is constant, so its rows flow in closed form and the drive
    # makes its own steps; on the smooth system the drive's breakpoints split
    # the row's stretches, so only the stretch left of the anchor is shared
    lam = 2.7 + 0.4j
    if case == "P1":
        sysm, anchor, f = ProblemConfig.load("P1").system, 1.0, VectorFunction(lambda x: np.array([1.0, np.cos(x)]))
    else:
        sysm, anchor = smooth_system(None), ANCHOR
        f = VectorFunction(lambda x: np.array([1.0, np.cos(x)]), support=(0.0, 0.9), breakpoints=(1.2,))
    drives, row = propagation.drive_row(sysm, lam, f, rows=[lam, np.conj(lam)], anchors=[anchor])
    (fund,) = drives.fundamentals
    assert row.fundamentals[0].pieces[0].flow is not None if case == "P1" else len(fund.points) == 5
    a, b = sysm.interval
    for side in ([a + 0.1, 0.5 * (a + anchor)], [anchor + 0.3, b - 0.05]):
        for x, ref in zip(side, reference(sysm, lam, anchor, np.zeros(2), side, drive=f)):
            assert_close(fund(x)[:, 0], ref)
