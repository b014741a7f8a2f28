"""The invariant battery: identities of the theory checked on one problem.

``blockweyl verify`` writes the rows of :func:`verify_battery` to
``verify.json``.  Boundary rows not induced by square-integrable solution
pairs raise :class:`~blockweyl.errors.TheoryViolationError` from the assembly.
"""

from __future__ import annotations

import numpy as np

from .assembly import FAMILIES, assemble_blocks
from .engine import Engine
from .measures import IntervalSpec, integrate_bv, validate_measure
from .propagation import VectorFunction, row_integrand, wronskian_defect
from .system import BoundaryConditions, SystemSpec, jump_matrices
from .weyl import m_function, nevanlinna_diagnostics, symmetry_witness


def verify_battery(sys: SystemSpec, bc: BoundaryConditions) -> list[dict]:
    """Rows ``{"name", "value", "limit", "passed"}``, one per criterion."""
    eng = Engine(sys, bc)
    rng = np.random.default_rng(0)
    rows: list[dict] = []

    def add(name: str, value: float, limit: float):
        rows.append(
            {"name": name, "value": float(value), "limit": float(limit), "passed": bool(value <= limit)}
        )

    add("q_hermitian", max([v["magnitude"] for v in validate_measure(sys.q, "hermitian").violations], default=0.0), sys.tols.structural)
    add("w_nonnegative", max([v["magnitude"] for v in validate_measure(sys.w, "nonnegative").violations], default=0.0), sys.tols.structural)
    add("boundary_selfadjoint", bc.selfadjointness_defect(sys.J), sys.tols.structural)

    # jump-matrix conjugation identity at sampled parameters and atoms
    worst = 0.0
    for x in sys.atom_positions():
        for lam in (0.0, 1.0, 1j, 2 + 1j):
            bm, bp = jump_matrices(sys, x, lam)
            worst = max(worst, float(np.max(np.abs(bm + jump_matrices(sys, x, np.conj(lam))[1].conj().T))))
    add("jump_conjugation", worst, 1e-14)

    sing = eng.sing
    worst = 0.0
    for rec in sing.records:
        roots = set(rec.roots)
        for r in rec.roots:
            worst = max(worst, min(abs(np.conj(r) - s) for s in roots))
    add("lambda_conjugation_symmetry", worst, 1e-8)

    worst = 0.0
    for j in range(eng.block_count):
        for lam in (0.0, 1.0, 1j, 2 + 1j):
            worst = max(worst, wronskian_defect(sys, j, lam, 15, sing=sing, anchor=eng.anchors[j]))
    add("wronskian_identities", worst, 1e-9)

    asm = assemble_blocks(sys, bc, 1j, engine=eng)
    comp = np.eye(eng.coeff_dim) - asm.projector
    worst = max(float(np.max(np.abs(asm.family(name) @ comp), initial=0.0)) for name in FAMILIES)
    add("norm_zero_annihilation", worst, 1e-9)

    gap = asm.source_left - asm.source_right + asm.constraints
    width = eng.coeff_dim
    struct = max(
        float(np.max(np.abs(gap[:-width]))) if gap.shape[0] > width else 0.0,
        float(np.max(np.abs(gap[-width:] - comp))),
    )
    add("source_structure_identity", struct, 1e-12)

    worst_rank = 0.0
    for lam in (1j, 2j, 1 + 1j):
        a = assemble_blocks(sys, bc, lam, engine=eng)
        s = np.linalg.svd(a.constraints, compute_uv=False)
        worst_rank = max(worst_rank, float(s[0] / s[width - 1]) if s[width - 1] > 0 else np.inf)
    add("constraint_condition", worst_rank, 1e8)

    _, wnorm, _ = symmetry_witness(sys, bc, 1j, engine=eng)
    add("symmetry_witness", wnorm, 1e-9)

    grid = [complex(s, e) for s in (-2.0, -0.5, 0.75, 2.5) for e in (0.1, 1.0)]
    rep = nevanlinna_diagnostics(sys, bc, grid, engine=eng, analyticity_probe=False)
    add("weyl_symmetry", rep.max_symmetry, 1e-8)
    add("herglotz_min_eig", -rep.min_imag_eig, 1e-8)

    sample = m_function(sys, bc, 1j, engine=eng)
    add("weyl_mean_identity", float(np.max(np.abs(sample.m - 0.5 * (sample.m_left + sample.m_right)))), 1e-13)
    add("projector_absorption", float(np.max(np.abs(asm.projector @ sample.m @ asm.projector - sample.m))), 1e-10)

    F = asm.constraints
    u, s, _ = asm.svd
    keep = s > sys.tols.pinv_rel * s[0]
    proj_range = (u[:, keep] * 1.0) @ u[:, keep].conj().T
    resid = (np.eye(F.shape[0]) - proj_range) @ asm.source_mean @ eng.J_blocks_inv @ asm.projector
    add("range_inclusion", float(np.max(np.abs(resid))), 1e-8)

    # transform additivity on a random piecewise vector
    g = VectorFunction(fn=lambda x, v=rng.standard_normal(sys.dim): v.astype(complex))
    a0, b0 = sys.interval
    mid = 0.5 * (a0 + b0) + 0.1 * (b0 - a0) * 0.37
    row_g = row_integrand(eng.row(1j), g)
    full = integrate_bv(row_g, sys.w, IntervalSpec(a0, b0), breakpoints=sys.atom_positions(), tols=sys.tols)
    left = integrate_bv(row_g, sys.w, IntervalSpec(a0, mid, include_upper=True), breakpoints=sys.atom_positions(), tols=sys.tols)
    right = integrate_bv(row_g, sys.w, IntervalSpec(mid, b0, include_lower=False), breakpoints=sys.atom_positions(), tols=sys.tols)
    add("measure_additivity", float(np.max(np.abs(full - left - right))), 1e-9)
    return rows
