import numpy as np
import pytest

from conftest import J2
from blockweyl.assembly import norm_zero_space
from blockweyl.weyl import m_function, nevanlinna_diagnostics, symmetry_witness


def closed_form_m(lam: complex) -> np.ndarray:
    """Independent hand-derived Weyl matrix of the shipped free problem."""
    return np.array(
        [[0.0, 0.5], [0.5, -np.cos(lam * np.pi) / np.sin(lam * np.pi)]], dtype=complex
    )


@pytest.mark.parametrize("lam", [1j, 2j, 1 + 1j, 0.3 + 0.7j])
def test_p1_matches_closed_form(lam, p1, e1):
    sample = m_function(*p1, lam, engine=e1)
    assert np.max(np.abs(sample.m - closed_form_m(lam))) < 1e-12
    assert sample.verified


def test_one_sided_weyl_matrices_differ_by_structure_matrix(p1, e1):
    # the two one-sided representations differ exactly by the inverse
    # block-structure matrix on the transform range (full here)
    sample = m_function(*p1, 1.3j, engine=e1)
    Jinv = np.linalg.inv(J2)
    assert np.max(np.abs(sample.m_left - sample.m_right + Jinv)) < 1e-12
    assert np.max(np.abs(sample.m - 0.5 * (sample.m_left + sample.m_right))) < 1e-14


def test_projector_absorption_and_kernel(p4, e4):
    sysm, bc = p4
    basis, proj = norm_zero_space(sysm, engine=e4)
    sample = m_function(sysm, bc, 0.7 + 0.3j, engine=e4)
    assert np.max(np.abs(sample.m @ basis)) < 1e-12
    assert np.max(np.abs(sample.m.conj().T @ basis)) < 1e-12
    assert np.max(np.abs(proj @ sample.m @ proj - sample.m)) < 1e-12


def test_witness_vanishes_on_shipped_problems(p1, p2, p3, p4):
    for sysm, bc in (p1, p2, p3, p4):
        _, norm, blocks = symmetry_witness(sysm, bc, 0.4 + 0.9j)
        assert norm < 1e-9
        # junction row and column blocks vanish identically
        for (row, col), val in blocks.items():
            if "junction" in (row, col):
                assert val < 1e-9


def test_symmetry_and_conjugation(p2, e2):
    sysm, bc = p2
    for lam in (1j, 0.5 + 0.25j, -1 + 2j):
        a = m_function(sysm, bc, lam, engine=e2)
        b = m_function(sysm, bc, np.conj(lam), engine=e2)
        assert np.max(np.abs(a.m - b.m.conj().T)) < 1e-10
        # real coefficients: conjugate parameter gives the entrywise conjugate
        assert np.max(np.abs(b.m - a.m.conj())) < 1e-10


def test_nevanlinna_diagnostics_grid(p1, e1):
    grid = [s + 1j * e for s in np.arange(-3.0, 3.25, 0.5) for e in (0.1, 1.0)]
    rep = nevanlinna_diagnostics(*p1, grid, engine=e1)
    assert rep.max_symmetry < 1e-8
    assert rep.min_imag_eig > -1e-8
    assert rep.max_witness < 1e-9
    assert rep.max_analyticity < 1e-4  # difference-quotient cross-check


def test_p3_weyl_sane_with_nontrivial_projector(p3, e3):
    sysm, bc = p3
    sample = m_function(sysm, bc, 0.6 + 0.8j, engine=e3)
    im = (sample.m - sample.m.conj().T) / 2j
    assert np.min(np.linalg.eigvalsh(im)) > -1e-10
    basis, _ = norm_zero_space(sysm, engine=e3)
    assert np.max(np.abs(sample.m @ basis)) < 1e-12


def test_range_inclusion_under_vanishing_witness(p1, p4):
    from blockweyl.assembly import assemble_blocks
    from blockweyl.engine import Engine

    for sysm, bc in (p1, p4):
        eng = Engine(sysm, bc)
        asm = assemble_blocks(sysm, bc, 0.9j, engine=eng)
        F = asm.constraints
        u, s, _ = np.linalg.svd(F, full_matrices=False)
        keep = s > 1e-12 * s[0]
        proj_range = u[:, keep] @ u[:, keep].conj().T
        resid = (np.eye(F.shape[0]) - proj_range) @ asm.source_mean @ eng.J_blocks_inv @ asm.projector
        assert np.max(np.abs(resid)) < 1e-10
