import numpy as np
import pytest

from conftest import J2
from test_batching import PARTITION_ATOM
from blockweyl import assembly
from blockweyl.assembly import (
    FAMILIES,
    assemble_blocks,
    boundary_blocks,
    deficiency_projectors,
    jump_system,
    norm_zero_space,
    transform_range_dim,
)
from blockweyl.engine import Engine
from blockweyl.errors import TheoryViolationError
from blockweyl.measures import MatrixMeasure, Segment
from blockweyl.propagation import solution_row
from blockweyl.system import BoundaryConditions, EndpointSpec, SystemSpec, jump_matrices


def test_jump_system_empty_for_unpartitioned(p1):
    defect, mean = jump_system(p1[0], 1j)
    assert defect.shape == (0, 2) and mean.shape == (0, 2)


def test_jump_system_p4_value_and_kernel(p4):
    sysm, _ = p4
    defect, mean = jump_system(sysm, 0.0)
    assert np.allclose(defect, [[0.0, 1.0, 0.0, -1.0], [-1.0, 1.0, 1.0, 1.0]])
    assert 4 - np.linalg.matrix_rank(defect) == 2
    # mean differs by the sign of the left block
    assert np.allclose(mean[:, 2:], defect[:, 2:])
    assert np.allclose(mean[:, :2], -defect[:, :2])


def test_jump_system_matches_direct_evaluation(p4):
    sysm, _ = p4
    lam = 0.8 + 0.3j
    defect, _ = jump_system(sysm, lam)
    row = solution_row(sysm, lam)
    rng = np.random.default_rng(3)
    for _ in range(4):
        eta = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        bm, bp = jump_matrices(sysm, 0.0, lam)
        u_left = row.left(0.0) @ eta
        u_right = row.right(0.0) @ eta
        direct = bp @ u_right - bm @ u_left
        assert np.max(np.abs(defect @ eta - direct)) < 1e-12


def test_jump_system_at_two_partition_points_matches_direct_evaluation():
    # the one case where per-block products may differ in roundoff from
    # block-diagonal ones: B_plus degenerates at lam = 1 at both atoms
    dq, dw = PARTITION_ATOM
    sysm = SystemSpec(
        J=J2,
        q=MatrixMeasure(dim=2, atoms=((-0.5, dq), (0.5, dq))),
        w=MatrixMeasure(dim=2, segments=(Segment((-1.0, 1.0), lambda x: np.eye(2), degree=0),),
                        atoms=((-0.5, dw), (0.5, dw))),
        interval=(-1.0, 1.0),
    )
    eng = Engine(sysm)
    assert eng.sing.partition == [-0.5, 0.5]
    rng = np.random.default_rng(5)
    eta = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    for lam in (0.4 + 0.7j, np.array([0.4 + 0.7j, -1.5, 2.0 - 0.3j])):
        defect, _ = jump_system(sysm, lam, engine=eng)
        row = solution_row(sysm, lam)
        for k, x in enumerate((-0.5, 0.5)):
            bm, bp = jump_matrices(sysm, x, lam)
            direct = (bp @ row.right(x) - bm @ row.left(x)) @ eta
            assert np.max(np.abs((defect @ eta)[..., 2 * k : 2 * k + 2] - direct)) < 1e-12


def test_norm_zero_space_p4_and_p1(p1, p4):
    basis, proj = norm_zero_space(p4[0])
    assert basis.shape[1] == 1
    assert round(float(np.real(np.trace(proj)))) == 3
    direction = basis[:, 0] / basis[0, 0]
    assert np.max(np.abs(direction - np.array([1.0, 1.0, -1.0, 1.0]))) < 1e-9
    assert np.max(np.abs(proj @ proj - proj)) < 1e-12
    assert np.max(np.abs(proj - proj.conj().T)) < 1e-12

    basis1, proj1 = norm_zero_space(p1[0])
    assert basis1.shape[1] == 0
    assert np.max(np.abs(proj1 - np.eye(2))) < 1e-12


def test_norm_zero_with_zero_weight():
    # with w == 0 every global solution has zero norm
    sysm = SystemSpec(
        J=J2,
        q=MatrixMeasure.point(0.0, np.diag([0.0, 2.0])),
        w=MatrixMeasure.zero(2),
        interval=(-1.0, 1.0),
    )
    basis, proj = norm_zero_space(sysm)
    defect, _ = jump_system(sysm, 0.0)
    # norm-zero space equals the kernel of the junction rows
    rank = np.linalg.matrix_rank(defect) if defect.size else 0
    assert basis.shape[1] == defect.shape[1] - rank
    if defect.size and basis.size:
        assert np.max(np.abs(defect @ basis)) < 1e-10
    dim_b, _ = transform_range_dim(sysm)
    assert dim_b == 0


def test_transform_range_dims(p1, p4):
    assert transform_range_dim(p4[0]) == (1, False)
    assert transform_range_dim(p1[0]) == (2, True)


def test_deficiency_projectors_regular_and_singular(p1):
    pm, pp = deficiency_projectors(p1[0], 1j)
    assert np.array_equal(pm, np.eye(2)) and np.array_equal(pp, np.eye(2))

    sing_b = SystemSpec(
        J=J2,
        q=MatrixMeasure.zero(2),
        w=MatrixMeasure.constant(np.eye(2), (0.0, np.pi)),
        interval=(0.0, np.pi),
        endpoint_b=EndpointSpec(regular=False, l2_span=np.array([[1.0], [0.0]])),
    )
    _, pp = deficiency_projectors(sing_b, 1j)
    assert np.allclose(pp, np.diag([1.0, 0.0]))

    rank0 = SystemSpec(
        J=J2,
        q=MatrixMeasure.zero(2),
        w=MatrixMeasure.constant(np.eye(2), (0.0, np.pi)),
        interval=(0.0, np.pi),
        endpoint_b=EndpointSpec(regular=False, l2_span=np.zeros((2, 0))),
    )
    _, pp0 = deficiency_projectors(rank0, 1j)
    assert np.max(np.abs(pp0)) == 0.0


def test_boundary_blocks_p1_at_zero(p1):
    sysm, bc = p1
    am, ap, sm, sp = boundary_blocks(sysm, bc, 0.0)
    assert np.allclose(am, [[-1.0, 0.0], [0.0, 0.0]])
    assert np.allclose(ap, [[0.0, 0.0], [1.0, 0.0]])
    # N = 0: script blocks coincide with the plain ones
    assert np.allclose(sm, am) and np.allclose(sp, ap)


def test_boundary_blocks_annihilated_by_zero_projector(p1):
    sysm, _ = p1
    zero_minus = SystemSpec(
        J=sysm.J, q=sysm.q, w=sysm.w, interval=sysm.interval, anchors=sysm.anchors,
        endpoint_b=EndpointSpec(regular=False, l2_span=np.zeros((2, 0))),
    )
    bc = BoundaryConditions(Ga=np.array([[1.0, 0.0], [0.0, 0.0]]), Gb=np.zeros((2, 2)))
    _, ap, _, _ = boundary_blocks(zero_minus, bc, 1j)
    assert np.max(np.abs(ap)) == 0.0


def test_assembly_p1_structure(p1):
    sysm, bc = p1
    asm = assemble_blocks(sysm, bc, 1j)
    assert asm.constraints.shape == (8, 2)
    assert np.linalg.matrix_rank(asm.constraints) == 2
    assert np.max(np.abs(asm.family("q_minus"))) == 0.0 and np.max(np.abs(asm.family("q_plus"))) == 0.0
    core = asm.family("boundary")
    assert abs(np.linalg.det(core)) > 0.1  # invertible boundary core off the spectrum
    # the averaged source carries no projector row
    assert np.max(np.abs(asm.source_mean[-2:])) == 0.0


def test_assembly_p4_shape_rank_and_identities(p4):
    sysm, bc = p4
    eng = Engine(sysm, bc)
    asm = assemble_blocks(sysm, bc, 1j, engine=eng)
    # junction (2) + two integrability rows (2+2) + one boundary row + projector (4)
    assert asm.constraints.shape == (11, 4)
    assert np.linalg.matrix_rank(asm.constraints) == 4
    comp = np.eye(4) - asm.projector
    for name in FAMILIES:
        assert np.max(np.abs(asm.family(name) @ comp), initial=0.0) < 1e-9
    gap = asm.source_left - asm.source_right + asm.constraints
    assert np.max(np.abs(gap[:-4])) < 1e-12
    assert np.max(np.abs(gap[-4:] - comp)) < 1e-12
    # averaged source: junction block uses the signed mean, last row zero
    junction = asm.rows["junction"]
    assert np.max(np.abs(asm.source_mean[:2] - 0.5 * (asm.right - asm.left)[junction])) < 1e-12
    assert np.max(np.abs(asm.source_mean[-4:])) == 0.0


@pytest.mark.parametrize("lam", [1j, 2j, 1 + 1j])
def test_full_column_rank_on_shipped_problems(lam, p1, p2, p3, p4):
    for sysm, bc in (p1, p2, p3, p4):
        asm = assemble_blocks(sysm, bc, lam)
        s = np.linalg.svd(asm.constraints, compute_uv=False)
        width = asm.coeff_dim
        assert s[width - 1] > 1e-8 * s[0]


def test_rank_deficiency_near_exceptional_point_raises():
    from blockweyl.measures import Segment
    from blockweyl.system import partition_points

    # det B+ = (1 - lam)^2 + 1 has the nonreal roots 1 +- i: the atom is
    # crossable for every real parameter, and the exceptional set is nonreal
    sysm = SystemSpec(
        J=J2,
        q=MatrixMeasure(dim=2, atoms=((0.0, 2 * np.eye(2)),)),
        w=MatrixMeasure(
            dim=2,
            segments=(Segment((-1.0, 1.0), lambda x: np.eye(2), degree=0),),
            atoms=((0.0, 2 * np.eye(2)),),
        ),
        interval=(-1.0, 1.0),
    )
    sing = partition_points(sysm)
    assert sing.partition == []
    assert len(sing.tilde_lambda) == 2
    assert all(
        min(abs(t - z) for t in sing.tilde_lambda) < 1e-9 for z in (1 - 1j, 1 + 1j)
    )
    bc = BoundaryConditions(
        Ga=np.array([[1.0, 0.0], [0.0, 0.0]]), Gb=np.array([[0.0, 0.0], [1.0, 0.0]])
    )
    with pytest.raises(TheoryViolationError):
        assemble_blocks(sysm, bc, 1 + 1j + 1e-11j)


def test_boundary_rows_must_annihilate_norm_zero_space(p3):
    sysm, _ = p3
    classical = BoundaryConditions(
        Ga=np.array([[1.0, 0.0], [0.0, 0.0]]), Gb=np.array([[0.0, 0.0], [1.0, 0.0]])
    )
    # the two classical pinned-end rows pass the endpoint identity but are not
    # induced by square-integrable solution pairs; the assembly detects this
    assert classical.selfadjointness_defect(sysm.J) < 1e-12
    with pytest.raises(TheoryViolationError):
        assemble_blocks(sysm, classical, 1j)


def test_one_deficiency_projector_call_per_assembly(p3, monkeypatch):
    sysm, bc = p3
    calls = []
    projectors = assembly.deficiency_projectors

    def counted(*args, **kwargs):
        calls.append(args)
        return projectors(*args, **kwargs)

    monkeypatch.setattr(assembly, "deficiency_projectors", counted)
    eng = Engine(sysm, bc)
    lams = (1j, 2j, 1 + 1j)
    assembled = [assemble_blocks(sysm, bc, lam, engine=eng) for lam in lams]
    assert len(calls) == len(lams)
    monkeypatch.undo()
    # the boundary rows are the blocks of boundary_blocks
    n = sysm.dim
    for lam, asm in zip(lams, assembled):
        a_minus, a_plus, _, _ = boundary_blocks(sysm, bc, lam, engine=eng)
        rows = asm.rows["boundary"]
        assert np.array_equal(asm.right[rows, :n], a_minus)
        assert np.array_equal(asm.left[rows, asm.coeff_dim - n :], a_plus)
