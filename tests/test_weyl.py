import numpy as np
import pytest

from conftest import J2
from blockweyl.assembly import norm_zero_space
from blockweyl.engine import Engine
from blockweyl.errors import TheoryViolationError
from blockweyl.weyl import m_function, m_function_many, nevanlinna_diagnostics, symmetry_witness


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


BATCH = (1j, 0.3 + 1e-2j, 0.3 + 1e-4j, -7.25 + 0.5j, 40.5 - 2j)


@pytest.mark.parametrize("name", ["p1", "p2", "p3", "p4"])
@pytest.mark.parametrize("with_witness", [False, True])
def test_batched_weyl_samples_match_scalar_ones_bitwise(name, with_witness, request):
    sysm, bc = request.getfixturevalue(name)
    scalar_eng = Engine(sysm, bc)
    batch = m_function_many(sysm, bc, BATCH, engine=Engine(sysm, bc), with_witness=with_witness)
    for lam, got in zip(BATCH, batch):
        want = m_function(sysm, bc, lam, engine=scalar_eng, with_witness=with_witness)
        assert got.lam == lam
        for field in ("m", "m_left", "m_right"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        assert (got.witness_norm, got.constraint_cond, got.verified) == (
            want.witness_norm, want.constraint_cond, want.verified)


def test_batched_weyl_samples_keep_one_memo_entry_each(p2):
    sysm, bc = p2
    eng = Engine(sysm, bc)

    def weyl_keys():
        return [key for key in eng._memo if isinstance(key, tuple) and key[0] == "weyl"]

    first = m_function(sysm, bc, BATCH[1], engine=eng, with_witness=False)
    batch = m_function_many(sysm, bc, BATCH, engine=eng)
    assert len(weyl_keys()) == len(BATCH)
    assert batch[1] is first  # a cached sample comes back as it is
    again = m_function_many(sysm, bc, BATCH[::-1], engine=eng)
    assert all(a is b for a, b in zip(again, batch[::-1]))
    assert m_function(sysm, bc, BATCH[3], engine=eng, with_witness=False) is batch[3]
    assert len(weyl_keys()) == len(BATCH)


def test_batch_with_an_exceptional_parameter_raises_like_the_scalar_call():
    from blockweyl.measures import MatrixMeasure, Segment
    from blockweyl.system import BoundaryConditions, SystemSpec

    # the system of test_assembly's exceptional-point test: 1 + i is exceptional
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
    bc = BoundaryConditions(
        Ga=np.array([[1.0, 0.0], [0.0, 0.0]]), Gb=np.array([[0.0, 0.0], [1.0, 0.0]])
    )
    bad = 1 + 1j + 1e-11j
    with pytest.raises(TheoryViolationError) as scalar:
        m_function(sysm, bc, bad, engine=Engine(sysm, bc), with_witness=False)
    eng = Engine(sysm, bc)
    with pytest.raises(TheoryViolationError) as batch:
        m_function_many(sysm, bc, [0.5j, bad, 2j], engine=eng)
    assert str(batch.value) == str(scalar.value)
    assert not [key for key in eng._memo if isinstance(key, tuple) and key[0] == "weyl"]


@pytest.mark.parametrize("name", ["p1", "p3"])
def test_witness_takes_the_assembly_of_its_batch(name, request, monkeypatch):
    # a sample with its witness assembles lam once and conj(lam) once; the
    # witness is bitwise the one that assembles lam again
    from blockweyl import weyl

    sysm, bc = request.getfixturevalue(name)
    eng = Engine(sysm, bc)
    norm_zero_space(sysm, engine=eng)
    calls = []
    assemble = weyl.assemble_blocks
    monkeypatch.setattr(weyl, "assemble_blocks", lambda *args, **kw: calls.append(args[2]) or assemble(*args, **kw))
    lam = 0.4 + 0.9j
    sample = m_function(sysm, bc, lam, engine=eng)
    assert calls == [lam, np.conj(lam)]
    monkeypatch.undo()
    _, norm, _ = symmetry_witness(sysm, bc, lam, engine=Engine(sysm, bc))
    assert sample.witness_norm == norm


@pytest.mark.parametrize("name", ["p1", "p4"])
def test_diagnostics_witnesses_read_slices_of_the_batch_assemblies(name, request, monkeypatch):
    # a grid of four: the samples, the witnesses' conjugates, the conjugate
    # samples and the probes are one stacked assembly each, and every witness
    # is bitwise the one that assembles its own pair
    from blockweyl import weyl

    sysm, bc = request.getfixturevalue(name)
    grid = [0.3 + 0.5j, -1.2 + 0.1j, 2.0 + 1.0j, 0.7 - 0.4j]
    eng = Engine(sysm, bc)
    norm_zero_space(sysm, engine=eng)
    calls = []
    assemble = weyl.assemble_blocks
    monkeypatch.setattr(weyl, "assemble_blocks",
                        lambda *args, **kw: calls.append(np.shape(args[2])) or assemble(*args, **kw))
    rep = nevanlinna_diagnostics(sysm, bc, grid, engine=eng)
    assert calls == [(4,), (4,), (4,), (32,)]
    monkeypatch.undo()
    for lam, row in zip(grid, rep.rows):
        assert row.witness_norm == symmetry_witness(sysm, bc, lam, engine=Engine(sysm, bc))[1]
