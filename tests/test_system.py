import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import J2
from blockweyl.errors import StructuralError
from blockweyl.measures import MatrixMeasure, Segment
from blockweyl.system import (
    BoundaryConditions,
    BoundedStore,
    SystemSpec,
    choose_anchors,
    jump_matrices,
    partition_points,
    singular_lambdas_at,
    subintervals,
)


def test_system_validation_rejects_bad_inputs():
    ok_w = MatrixMeasure.constant(np.eye(2), (0.0, 1.0))
    with pytest.raises(StructuralError):  # not skew-hermitian
        SystemSpec(J=np.eye(2), q=MatrixMeasure.zero(2), w=ok_w, interval=(0.0, 1.0))
    with pytest.raises(StructuralError):  # singular J
        SystemSpec(J=np.zeros((2, 2)), q=MatrixMeasure.zero(2), w=ok_w, interval=(0.0, 1.0))
    with pytest.raises(StructuralError):  # non-hermitian q
        SystemSpec(
            J=J2, q=MatrixMeasure.point(0.5, np.array([[0.0, 1.0], [0.0, 0.0]])),
            w=ok_w, interval=(0.0, 1.0),
        )
    with pytest.raises(StructuralError):  # atom outside the open interval
        SystemSpec(J=J2, q=MatrixMeasure.point(0.0, np.eye(2)), w=ok_w, interval=(0.0, 1.0))
    with pytest.raises(StructuralError):  # regular endpoint must be finite
        SystemSpec(J=J2, q=MatrixMeasure.zero(2), w=MatrixMeasure.zero(2), interval=(-np.inf, 1.0))


def test_jump_matrices_p4_values(p4):
    sysm, _ = p4
    bm, bp = jump_matrices(sysm, 0.0, 1.0)
    assert np.allclose(bp, [[-1.0, -1.0], [1.0, 1.0]])
    assert abs(np.linalg.det(bp)) < 1e-14
    _, bp0 = jump_matrices(sysm, 0.0, 0.0)
    assert np.allclose(bp0, [[0.0, -1.0], [1.0, 1.0]])
    assert abs(np.linalg.det(bp0) - 1.0) < 1e-14
    # off-atom both equal J
    bm_off, bp_off = jump_matrices(sysm, 0.5, 2.0 + 1j)
    assert np.array_equal(bm_off, sysm.J) and np.array_equal(bp_off, sysm.J)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**10 - 1))
def test_jump_conjugation_identity_exact(seed):
    rng = np.random.default_rng(seed)
    dq = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    dq = 0.5 * (dq + dq.conj().T)
    dw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    dw = dw @ dw.conj().T
    dw = 0.5 * (dw + dw.conj().T)  # make hermiticity exact at the bit level
    sysm = SystemSpec(
        J=J2.astype(complex),
        q=MatrixMeasure.point(0.0, dq),
        w=MatrixMeasure.point(0.0, dw),
        interval=(-1.0, 1.0),
    )
    lam = complex(rng.standard_normal(), rng.standard_normal())
    bm, _ = jump_matrices(sysm, 0.0, lam)
    _, bp_conj = jump_matrices(sysm, 0.0, np.conj(lam))
    assert np.array_equal(bm, -bp_conj.conj().T)
    # determinant relation follows
    n = sysm.dim
    assert abs(np.linalg.det(bm) - (-1) ** n * np.conj(np.linalg.det(bp_conj))) < 1e-12


def test_singular_lambdas_p4_brute_force(p4):
    sysm, _ = p4
    rec = singular_lambdas_at(sysm, 0.0)
    assert rec.kind == "finite"
    assert len(rec.roots) == 1 and abs(rec.roots[0] - 1.0) < 1e-12
    # brute-force determinant sweep: only near lam=1 does det B+ get small
    for lam in np.linspace(-3, 3, 61):
        _, bp = jump_matrices(sysm, 0.0, lam)
        det = abs(np.linalg.det(bp))
        if abs(lam - 1.0) > 0.05:
            assert det > 0.04


def test_singular_lambdas_no_atom_empty(p1):
    sysm, _ = p1
    assert singular_lambdas_at(sysm, 1.0).kind == "empty"


def test_singular_lambdas_scalar_conjugate_pair():
    sysm = SystemSpec(
        J=np.array([[1j]]),
        q=MatrixMeasure.point(0.0, np.array([[1.0]])),
        w=MatrixMeasure.point(0.0, np.array([[1.0]])),
        interval=(-1.0, 1.0),
    )
    rec = singular_lambdas_at(sysm, 0.0)
    roots = sorted(rec.roots, key=lambda z: z.imag)
    assert len(roots) == 2
    assert abs(roots[0] - (1 - 2j)) < 1e-10 and abs(roots[1] - (1 + 2j)) < 1e-10
    assert not rec.meets_real_axis


def test_singular_lambdas_all_of_plane():
    # J + dq/2 singular with no weight atom: the determinant vanishes identically
    sysm = SystemSpec(
        J=J2,
        q=MatrixMeasure.point(0.0, np.array([[0.0, 2.0], [2.0, 0.0]])),
        w=MatrixMeasure.zero(2),
        interval=(-1.0, 1.0),
    )
    rec = singular_lambdas_at(sysm, 0.0)
    assert rec.kind == "all"
    assert partition_points(sysm).partition == [0.0]


def test_partition_p1_p2_p4(p1, p2, p4):
    assert partition_points(p1[0]).partition == []
    assert partition_points(p2[0]).partition == []  # det B+ == 1 identically
    sing4 = partition_points(p4[0])
    assert sing4.partition == [0.0]
    assert sing4.tilde_lambda == []
    assert sing4.isolated_points_hypothesis


def test_partition_independent_of_density_slicing(p2):
    sysm, _ = p2
    # re-slice the weight density into three segments
    dens = lambda x: np.eye(2)
    resliced = SystemSpec(
        J=sysm.J,
        q=sysm.q,
        w=MatrixMeasure(
            dim=2,
            segments=(
                Segment((0.0, 1.0), dens, degree=0),
                Segment((1.0, 2.0), dens, degree=0),
                Segment((2.0, np.pi), dens, degree=0),
            ),
        ),
        interval=sysm.interval,
    )
    assert partition_points(resliced).partition == partition_points(sysm).partition
    assert [r.kind for r in partition_points(resliced).records] == [
        r.kind for r in partition_points(sysm).records
    ]


def test_choose_anchors_rules(p1, p2, p4):
    sys_default = SystemSpec(J=p1[0].J, q=p1[0].q, w=p1[0].w, interval=p1[0].interval)
    assert choose_anchors(sys_default) == [np.pi / 2]
    assert choose_anchors(p4[0]) == [-0.5, 0.5]
    xi = choose_anchors(p2[0])[0]
    assert not p2[0].is_atom(xi) and 0 < xi < np.pi
    # explicit override is validated
    assert choose_anchors(p1[0]) == [0.0]
    with pytest.raises(StructuralError):
        choose_anchors(
            SystemSpec(J=p4[0].J, q=p4[0].q, w=p4[0].w, interval=(-1.0, 1.0), anchors=(0.0, 0.5))
        )


def test_subintervals(p4):
    assert subintervals(p4[0]) == [(-1.0, 0.0), (0.0, 1.0)]


def test_boundary_selfadjointness():
    bc = BoundaryConditions(Ga=np.array([[1.0, 0.0], [0.0, 0.0]]), Gb=np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert bc.selfadjointness_defect(J2) == 0.0  # (1,0) J^-1 (1,0)^* = 0
    # a complex row pair violating the identity
    bad = BoundaryConditions(Ga=np.array([[1.0, 1j]]), Gb=np.array([[0.0, 0.0]]))
    assert bad.selfadjointness_defect(J2) > 0.1


def test_boundary_validate_raises(p1):
    sysm, _ = p1
    bad = BoundaryConditions(Ga=np.array([[1.0, 1j]]), Gb=np.array([[0.0, 0.0]]))
    with pytest.raises(StructuralError):
        bad.validate(sysm)


def test_bounded_store_drops_the_least_recently_used_value():
    store = BoundedStore(2)
    a, b = store.get("a", list), store.get("b", list)
    assert store.get("a", dict) is a  # a hit builds nothing and moves "a" last
    assert store.peek(["b", "x"]) == {"b": b}  # a peek neither builds nor moves "b"
    store.get("c", list)
    assert list(store) == ["a", "c"] and len(store) == 2
    assert store.get("b", dict) == {}  # built again


def test_bounded_store_under_threads_keeps_one_value_per_key_and_its_bound():
    # eight threads ask for 32 keys in turn, and every build yields the
    # thread: while every key fits, each thread gets the first value stored;
    # a store too small for them stays within its bound
    roomy, tight = BoundedStore(64), BoundedStore(8)

    def build():
        time.sleep(0)
        return object()

    def work(k):
        got = {}
        for i in range(400):
            key = (7 * i + k) % 32
            got.setdefault(key, set()).add(roomy.get(key, build))
            tight.get(key, build)
            assert len(tight) <= 8
        return got

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that races show
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = [future.result(timeout=60) for future in [pool.submit(work, k) for k in range(8)]]
    finally:
        sys.setswitchinterval(interval)
    stored = roomy.peek(range(32))
    assert len(stored) == len(roomy) == 32
    for got in results:
        assert all(values == {stored[key]} for key, values in got.items())
