"""Batched spectral parameters: stacked propagation and assembly against a per-parameter loop."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import J2, assert_point_is_a_batch_of_one, assert_sides_are_batches_of_one
from test_magnus import stored
from blockweyl.config import ProblemConfig
from blockweyl.assembly import assemble_blocks
from blockweyl.engine import Engine
from blockweyl.errors import BlockweylError, SingularTransferError
from blockweyl.measures import MatrixMeasure, Segment
from blockweyl.propagation import SolutionRow, VectorFunction, _transfer, solution_row, solve_ivp
from blockweyl.spectral import ResolventFunction
from blockweyl.system import BoundaryConditions, EndpointSpec, SystemSpec, choose_anchors, partition_points

BC = BoundaryConditions(Ga=np.array([[1.0, 0.0], [0.0, 0.0]]), Gb=np.array([[0.0, 0.0], [1.0, 0.0]]))
NILPOTENT_Q = np.array([[0.0, 0.0], [0.0, -1.0]])   # J^-1 (-q) squares to zero: exact series
PARTITION_ATOM = (np.diag([0.0, 2.0]), np.diag([2.0, 0.0]))  # B_plus degenerates at lam = 1


def _hermitian(draw, scale):
    re = draw(st.lists(st.floats(-scale, scale), min_size=3, max_size=3))
    im = draw(st.floats(-scale, scale))
    return np.array([[re[0], re[1] + 1j * im], [re[1] - 1j * im, re[2]]])


@st.composite
def batched_cases(draw):
    """A system with constant q/w densities and q/w atoms, plus a batch of parameters."""
    length = draw(st.floats(1.0, 3.0))
    q_kind = draw(st.sampled_from(["nilpotent", "zero", "random"]))
    if q_kind == "nilpotent":
        q_dens, w_dens = NILPOTENT_Q, None
    else:
        # a zero q density makes the stretch matrix vanish at lam = 0
        q_dens = np.zeros((2, 2)) if q_kind == "zero" else _hermitian(draw, 1.0)
        root = _hermitian(draw, 1.0)
        w_dens = root @ root + 0.1 * np.eye(2)
    spots = draw(st.lists(st.floats(0.1, 0.9), min_size=1, max_size=3, unique=True))
    atoms = sorted({round(length * t, 3) for t in spots})
    partition = draw(st.booleans())
    q_atoms, w_atoms = [], []
    for k, x in enumerate(atoms):
        if partition and k == 0:
            dq, dw = PARTITION_ATOM
        else:
            dq = 0.3 * _hermitian(draw, 1.0)
            mass = draw(st.floats(0.0, 1.0))
            dw = np.diag([mass, draw(st.floats(0.0, 1.0))])
        q_atoms.append((x, dq))
        w_atoms.append((x, dw))
    sysm = SystemSpec(
        J=J2,
        q=MatrixMeasure(dim=2, segments=(Segment((0.0, length), lambda x, m=q_dens: m, degree=0),),
                        atoms=tuple(q_atoms)),
        w=MatrixMeasure(
            dim=2,
            segments=() if w_dens is None else (Segment((0.0, length), lambda x, m=w_dens: m, degree=0),),
            atoms=tuple(w_atoms),
        ),
        interval=(0.0, length),
    )
    reals = draw(st.lists(st.floats(-6.0, 6.0), min_size=2, max_size=5))
    imags = draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, -1.0, 2.0]), min_size=len(reals),
                          max_size=len(reals)))
    lams = np.array([complex(r, i) for r, i in zip(reals, imags)] + [0.0])
    return sysm, lams


def _outcome(fn):
    """Result, or the type and message of the library error it raised."""
    try:
        return fn()
    except BlockweylError as exc:
        return type(exc), str(exc)


def _close(a, b):
    return np.max(np.abs(a - b), initial=0.0) <= 1e-13 * max(1.0, float(np.max(np.abs(b), initial=0.0)))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(batched_cases())
def test_batched_rows_and_assembly_match_loop(case):
    sysm, lams = case
    batch = _outcome(lambda: solution_row(sysm, lams))
    loop = [_outcome(lambda lam=lam: solution_row(sysm, lam)) for lam in lams]
    failures = [r for r in loop if isinstance(r, tuple)]
    if failures:
        assert batch == failures[0]
        return
    for i, single in enumerate(loop):
        for fund_b, fund_s in zip(batch.fundamentals, single.fundamentals):
            for x in fund_s.points:
                assert _close(fund_b.left(x)[i], fund_s.left(x))
                assert _close(fund_b.right(x)[i], fund_s.right(x))
        mid = 0.5 * (single.fundamentals[0].lo + single.fundamentals[0].points[1])
        assert _close(batch.balanced(mid)[i], single.balanced(mid))

    eng = Engine(sysm, BC)
    asm = _outcome(lambda: assemble_blocks(sysm, BC, lams, engine=eng, check_rank=False))
    loop = [_outcome(lambda lam=lam: assemble_blocks(sysm, BC, lam, engine=eng, check_rank=False))
            for lam in lams]
    failures = [r for r in loop if isinstance(r, tuple)]
    if failures:
        assert asm == failures[0]
        return
    for i, single in enumerate(loop):
        for field in ("constraints", "source_left", "source_right", "source_mean", "jump_mean"):
            assert _close(getattr(asm, field)[i], getattr(single, field))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(batched_cases(), st.lists(st.floats(0.0, 1.0), max_size=4))
def test_one_point_views_are_many_of_one_point(case, spots):
    # solutions stacked and alone, rows, a drive row of one column per block,
    # the drive and the densities, read at atoms, partition points, block
    # edges and interior points; NaN and points off the interval raise
    sysm, lams = case
    row = _outcome(lambda: solution_row(sysm, lams))
    a, b = sysm.interval
    f = VectorFunction(lambda x: np.array([1.0, math.cos(x)]), support=(a, 0.5 * (a + b)))
    anchors = choose_anchors(sysm, partition_points(sysm))
    drives = _outcome(lambda: SolutionRow(sysm, [
        solve_ivp(sysm, j, lams[0], x0, np.zeros((2, 1)), f) for j, x0 in enumerate(anchors)
    ]))
    if isinstance(row, tuple) or isinstance(drives, tuple):
        return
    edges = [fund.lo for fund in row.fundamentals] + [b]
    xs = sorted({*sysm.atom_positions(), *edges, *(a + (b - a) * t for t in spots)})
    outside = [math.nan, a - 0.5, b + 0.5]
    assert drives.balanced_many(np.array(xs)).shape == (len(xs), 2, drives.blocks)
    for r in [row, drives] + [row[i] for i in range(len(lams))]:
        assert_sides_are_batches_of_one(r, xs, outside)
        for fund in r.fundamentals:
            assert_sides_are_batches_of_one(fund, xs, outside)
    for point, many in [(f, f.many), (sysm.q.density_at, sysm.q.density_many),
                        (sysm.w.density_at, sysm.w.density_many)]:
        assert_point_is_a_batch_of_one(point, many, xs + outside)


def test_drive_rows_read_many_like_their_points(p2):
    # a drive row has one column per block
    sysm, bc = p2
    xs = np.array([0.3, 1.0, 2.0])
    res = ResolventFunction(sysm, bc, 1.3 + 0.4j, VectorFunction(lambda x: np.array([1.0, 0.0])))
    many = res.drives.balanced_many(xs)
    assert many.shape == (3, 2, res.drives.blocks)
    for x, value in zip(xs, many):
        assert np.array_equal(value, res.drives.balanced(x))


def test_stacked_solutions_read_many_like_their_points(p2):
    # a solution stacked over lam is evaluated one parameter at a time
    sysm, _ = p2
    xs = np.array([0.3, 1.0, 2.0])
    lams = np.array([1.3 + 0.2j, -2.0 + 0.5j])
    (fund,) = solution_row(sysm, lams).fundamentals
    many = fund.balanced_many(xs)
    assert many.shape == (3, 2, 2, 2)
    for x, value in zip(xs, many):
        assert np.array_equal(value, fund.balanced(x))
    for i, lam in enumerate(lams):
        assert np.array_equal(many[:, i], solution_row(sysm, lam).fundamentals[0].balanced_many(xs))


def test_cases_cover_partition_points_and_expm_fallback():
    """The two structural cases the property test must reach exist as drawn."""
    sysm = SystemSpec(
        J=J2,
        q=MatrixMeasure(dim=2, segments=(Segment((0.0, 2.0), lambda x: NILPOTENT_Q, degree=0),),
                        atoms=((0.5, PARTITION_ATOM[0]),)),
        w=MatrixMeasure(dim=2, atoms=((0.5, PARTITION_ATOM[1]),)),
        interval=(0.0, 2.0),
    )
    assert partition_points(sysm).partition == [0.5]
    row = solution_row(sysm, np.array([0.3, 1.0 + 1j]))
    flows = [p.flow for fund in row.fundamentals for p in fund.pieces]
    assert {flow.kind for flow in flows} == {"series"}
    # with both densities, J^-1 (lam w - q) = (lam - 1) J^-1 diag(1, 0) is nilpotent for
    # every lam and decomposed per parameter: the exact series
    both = MatrixMeasure.constant(np.diag([1.0, 0.0]), (0.0, 2.0))
    row = solution_row(SystemSpec(J=J2, q=both, w=both, interval=(0.0, 2.0)), np.array([0.3, 1.0 + 1j]))
    assert {p.flow.kind for fund in row.fundamentals for p in fund.pieces} == {"series"}
    # eigenvalues +-sqrt(1e-18 - lam) for q = [[0, 1e-9], [1e-9, -1]], w = diag(1, 0): near
    # lam = 0 neither diagonal nor nilpotent, the expm fallback
    q = MatrixMeasure.constant(np.array([[0.0, 1e-9], [1e-9, -1.0]]), (0.0, 2.0))
    row = solution_row(SystemSpec(J=J2, q=q, w=both, interval=(0.0, 2.0)), np.array([0.0, 1e-17j]))
    assert {p.flow.kind for fund in row.fundamentals for p in fund.pieces} == {"expm"}


def test_singular_transfer_in_batch_reports_the_loop_parameter():
    # B_minus is singular at x=-0.5 for lam = 1-2i (crossed going left from the
    # anchor), B_plus at x=0.5 for lam = 3+2i (crossed first, going right)
    sysm = SystemSpec(
        J=np.array([[1j]]),
        q=MatrixMeasure(dim=1, atoms=((-0.5, np.array([[1.0]])), (0.5, np.array([[3.0]])))),
        w=MatrixMeasure(dim=1, atoms=((-0.5, np.array([[1.0]])), (0.5, np.array([[1.0]])))),
        interval=(-1.0, 1.0),
    )
    lams = np.array([0.3, 1 - 2j, 3 + 2j])
    with pytest.raises(SingularTransferError) as scalar:
        for lam in lams:
            solution_row(sysm, lam)
    with pytest.raises(SingularTransferError) as batch:
        solution_row(sysm, lams)
    assert scalar.value.lam == batch.value.lam == 1 - 2j
    assert scalar.value.x == batch.value.x == -0.5
    bc = BoundaryConditions(Ga=np.zeros((1, 1)), Gb=np.zeros((1, 1)))
    with pytest.raises(SingularTransferError) as asm:
        assemble_blocks(sysm, bc, lams, engine=Engine(sysm, bc), check_rank=False)
    assert asm.value.lam == 1 - 2j


def test_batched_assembly_with_parameter_dependent_endpoint_data():
    # singular endpoints with callable spans and boundary limits, evaluated
    # once per parameter (the infinite-line point interaction of test_transform
    # with spans that depend on lam)
    sysm = SystemSpec(
        J=J2,
        q=MatrixMeasure.point(0.0, np.diag([0.0, 2.0])),
        w=MatrixMeasure.point(0.0, np.diag([2.0, 0.0])),
        interval=(-np.inf, np.inf),
        endpoint_a=EndpointSpec(
            regular=False, l2_span=lambda lam: np.array([[1.0, lam], [0.0, 1.0]]),
            boundary_limit=lambda lam: np.array([[0.0, -1.0]]),
        ),
        endpoint_b=EndpointSpec(
            regular=False, l2_span=lambda lam: np.array([[1.0], [lam]]),
            boundary_limit=lambda lam: np.array([[1.0, 0.0]]),
        ),
        anchors=(-1.0, 1.0),
    )
    bc = BoundaryConditions(Ga=np.array([[0.0, -1.0]]), Gb=np.array([[1.0, 0.0]]))
    eng = Engine(sysm, bc)
    lams = np.array([0.5 + 1j, -2.0 + 0.3j, 1j])
    batch = assemble_blocks(sysm, bc, lams, engine=eng)
    for i, lam in enumerate(lams):
        single = assemble_blocks(sysm, bc, lam, engine=eng)
        for field in ("constraints", "source_left", "source_right", "source_mean"):
            assert np.array_equal(getattr(batch, field)[i], getattr(single, field))


def test_batched_rows_on_smooth_stretches_integrate_each_parameter():
    # a non-constant weight takes the Magnus flow, once per parameter
    sysm = SystemSpec(
        J=J2,
        q=MatrixMeasure.point(0.4, np.diag([0.5, 0.0])),
        w=MatrixMeasure(dim=2, segments=(
            Segment((0.0, 1.0), lambda x: (1.0 + 0.5 * x) * np.eye(2), degree=1),)),
        interval=(0.0, 1.0),
    )
    lams = np.array([0.5 + 1j, 2.0])
    batch = solution_row(sysm, lams)
    for i, lam in enumerate(lams):
        single = solution_row(sysm, lam)
        for x in (0.0, 0.2, 0.4, 0.7, 1.0):
            assert np.array_equal(batch.left(x)[i], single.left(x))
            assert np.array_equal(batch.balanced(x)[i], single.balanced(x))


def test_lam_free_atom_gate_is_computed_once_per_atom_and_direction(monkeypatch):
    # a q atom without w mass: B_plus and B_minus do not depend on lam, so their
    # condition number is computed on the first crossing and read afterwards
    w = MatrixMeasure.constant(np.eye(2), (0.0, 2.0))
    sysm = SystemSpec(J=J2, q=MatrixMeasure.point(1.0, np.diag([0.5, -0.3])), w=w, interval=(0.0, 2.0))
    solution_row(sysm, np.array([0.3, 1.0 + 1j]))
    assert set(stored(sysm, "cond")) == {(1.0, -1)}
    cond = np.linalg.cond
    calls = []
    monkeypatch.setattr(np.linalg, "cond", lambda a, *args: calls.append(np.shape(a)) or cond(a, *args))
    row = solution_row(sysm, np.array([2.0, 5.0 - 1j, 7.0]))
    assert calls == []
    # the rows match those of one parameter at a time
    for i, lam in enumerate([2.0, 5.0 - 1j, 7.0]):
        single = solution_row(sysm, lam)
        xs = np.array([0.4, 1.0, 1.7])
        assert np.array_equal(row[i].balanced_many(xs), single.balanced_many(xs))

    # a lam-free jump matrix that is singular fails for every parameter: the
    # error names the first one of the batch
    singular = SystemSpec(
        J=J2, q=MatrixMeasure.point(1.0, np.array([[0.0, 2.0], [2.0, 0.0]])), w=w, interval=(0.0, 2.0)
    )
    lams = np.array([0.3 + 0.5j, 1.0, 4.0 - 1j])
    for direction in (1, -1):
        with pytest.raises(SingularTransferError) as err:
            _transfer(singular, lams, 1.0, np.ones((3, 2), dtype=complex), None, direction)
        assert err.value.lam == lams[0] and err.value.x == 1.0
    assert set(stored(singular, "cond")) == {(1.0, 1), (1.0, -1)}


def test_atom_gates_filled_from_threads_match_a_serial_fill():
    # P2's atom has no w mass; four threads cross it first, behind a barrier
    serial_sys, sysm = (ProblemConfig.load("P2").system for _ in range(2))
    lams = [np.linspace(-3.0, 3.0, 5) + 0.1j * k for k in range(8)]
    serial = [solution_row(serial_sys, lam).balanced(1.0) for lam in lams]
    barrier = threading.Barrier(4, timeout=60)
    results = [None] * len(lams)

    def work(k):
        barrier.wait()
        for i in range(k, len(lams), 4):
            results[i] = solution_row(sysm, lams[i]).balanced(1.0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that races show
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert stored(sysm, "cond") and stored(sysm, "cond") == stored(serial_sys, "cond")
    for one, other in zip(serial, results):
        assert np.array_equal(one, other)
