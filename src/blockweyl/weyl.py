"""The Weyl matrix and its Nevanlinna diagnostics.

The block construction yields, for every nonreal spectral parameter away from
the exceptional set, a rectangular constraint matrix ``F`` of full column rank
and source maps ``H_left/H_right/H``.  The Weyl matrix is

    ``M(lam) = P F(lam)^+ H(lam) Jb^-1 P``

with ``P`` the projector off norm-zero solutions, ``Jb`` the block-diagonal
structure matrix and ``^+`` the Moore-Penrose left inverse (any left inverse
would do on the relevant range; Moore-Penrose keeps results deterministic).
``M`` is symmetric, Herglotz and analytic whenever the symmetry witness
vanishes, which covers all regular problems; when the witness is not small the
sample is flagged so downstream spectral data can be marked unverified.

:func:`m_function_many` evaluates the formula for a stack of parameters from
one stacked assembly and one stacked pseudoinverse; :func:`m_function` is a
batch of one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .assembly import FAMILIES, BlockAssembly, assemble_blocks
from .engine import Engine
from .system import BoundaryConditions, SystemSpec

#: witness norms above this mark a sample as unverified
WITNESS_TOL = 1e-8


@dataclass
class WeylSample:
    """Weyl matrices at one spectral parameter plus quality diagnostics."""

    lam: complex
    m: np.ndarray
    m_left: np.ndarray
    m_right: np.ndarray
    witness_norm: float
    constraint_cond: float
    verified: bool

    @property
    def imag_part(self) -> np.ndarray:
        return (self.m - self.m.conj().T) / 2j


def _pinv(svd, rel: float) -> np.ndarray:
    """Moore-Penrose inverse of a matrix, or of each matrix of a stack, from its thin SVD."""
    u, s, vh = svd
    cutoff = rel * s[..., :1]
    inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return np.swapaxes(vh.conj(), -1, -2) @ (inv[..., :, None] * np.swapaxes(u.conj(), -1, -2))


def symmetry_witness(
    sys: SystemSpec,
    bc: BoundaryConditions,
    lam: complex,
    *,
    engine: Engine | None = None,
    asm: BlockAssembly | None = None,
    asm_c: BlockAssembly | None = None,
) -> tuple[np.ndarray, float, dict]:
    """The matrix certifying ``M(lam) = M(conj lam)^*`` when it vanishes.

    Returns the witness, its Frobenius norm and a per-block norm table built
    from the one-sided row stacks, keyed by pairs of
    :data:`~blockweyl.assembly.FAMILIES` (the projector block row is
    identically zero).  ``asm`` and ``asm_c`` are the assemblies at ``lam``
    and ``conj(lam)`` where the caller has made them; each is made here
    otherwise.
    """
    eng = engine or Engine(sys, bc)
    if asm is None:
        asm = assemble_blocks(sys, bc, lam, engine=eng, check_rank=False)
    if asm_c is None:
        asm_c = assemble_blocks(sys, bc, np.conj(lam), engine=eng, check_rank=False)
    Jinv = eng.J_blocks_inv
    P = asm.projector
    omega = (
        asm.source_mean @ Jinv @ P @ asm_c.constraints.conj().T
        + asm.constraints @ P @ Jinv @ asm_c.source_mean.conj().T
    )
    blocks = {}
    for i in FAMILIES:
        xi, yi = asm.right[asm.rows[i]], asm.left[asm.rows[i]]
        for k in FAMILIES:
            xk, yk = asm_c.right[asm_c.rows[k]], asm_c.left[asm_c.rows[k]]
            blocks[(i, k)] = float(np.linalg.norm(xi @ Jinv @ xk.conj().T - yi @ Jinv @ yk.conj().T))
    return omega, float(np.linalg.norm(omega)), blocks


def m_function(
    sys: SystemSpec,
    bc: BoundaryConditions,
    lam: complex,
    *,
    engine: Engine | None = None,
    with_witness: bool = True,
) -> WeylSample:
    """Weyl matrices ``(M_left, M_right, M)`` at a nonreal parameter: a batch of one."""
    return m_function_many(sys, bc, [lam], engine=engine, with_witness=with_witness)[0]


def m_function_many(
    sys: SystemSpec,
    bc: BoundaryConditions,
    lams,
    *,
    engine: Engine | None = None,
    with_witness: bool = False,
) -> list[WeylSample]:
    """Weyl samples at a sequence of nonreal parameters, in order.

    Each parameter has its own memo entry, keyed as :func:`m_function` keys
    it; cached samples are returned as they are, and the parameters not
    cached are assembled in one stacked pass (a single one at its cached
    solution row) with one stacked pseudoinverse.  A parameter on the
    exceptional set raises as it does on its own.  The symmetry witness is
    computed per parameter, from its slice of the batch's assembly and of
    one more stacked assembly at the conjugate parameters.
    """
    eng = engine or Engine(sys, bc)
    lams = [complex(lam) for lam in np.ravel(lams)]

    def build(missing: list[int]) -> list[WeylSample]:
        batch = [lams[i] for i in missing]
        stacked = batch[0] if len(batch) == 1 else np.array(batch)
        asm = assemble_blocks(sys, bc, stacked, engine=eng)
        P = asm.projector
        Jinv = eng.J_blocks_inv
        Fd = _pinv(asm.svd, sys.tols.pinv_rel)
        stack = (len(batch),) + P.shape
        m_left = np.reshape(P @ Fd @ asm.source_left @ Jinv @ P, stack)
        m_right = np.reshape(P @ Fd @ asm.source_right @ Jinv @ P, stack)
        F = asm.constraints.reshape(len(batch), *asm.constraints.shape[-2:])
        svals = asm.svd[1].reshape(len(batch), -1)
        pairs = [None] * len(batch)
        if with_witness:
            conj = assemble_blocks(sys, bc, np.conj(stacked), engine=eng, check_rank=False)
            pairs = list(zip(asm.split(), conj.split()))
        return [_sample(sys, bc, eng, *one) for one in zip(batch, F, svals, m_left, m_right, pairs)]

    return eng.memo_many([("weyl", bc, lam, with_witness) for lam in lams], build)


def _sample(sys, bc, eng, lam, F, svals, m_left, m_right, pair) -> WeylSample:
    """One sample from its constraint matrix, that matrix's singular values,
    the one-sided Weyl matrices and, for a sample with its witness, its
    assemblies at ``lam`` and ``conj(lam)``."""
    cond = float(svals[0] / svals[-1]) if svals.size and svals[-1] > 0 else np.inf
    wnorm = 0.0
    verified = True
    if pair is not None:
        _, wnorm, _ = symmetry_witness(sys, bc, lam, engine=eng, asm=pair[0], asm_c=pair[1])
        scale = max(1.0, float(np.linalg.norm(F)))
        verified = wnorm <= WITNESS_TOL * scale
        if not verified:
            warnings.warn(
                f"symmetry witness norm {wnorm:.3e} at lambda={lam!r}; "
                "spectral data derived from this sample is unverified",
                stacklevel=2,
            )
    return WeylSample(
        lam=lam,
        m=0.5 * (m_left + m_right),
        m_left=m_left,
        m_right=m_right,
        witness_norm=wnorm,
        constraint_cond=cond,
        verified=verified,
    )


@dataclass
class DiagnosticsRow:
    lam: complex
    symmetry_residual: float
    min_imag_eig: float
    witness_norm: float
    analyticity_residual: float


@dataclass
class NevanlinnaReport:
    rows: list[DiagnosticsRow] = field(default_factory=list)

    @property
    def max_symmetry(self) -> float:
        return max((r.symmetry_residual for r in self.rows), default=0.0)

    @property
    def min_imag_eig(self) -> float:
        return min((r.min_imag_eig for r in self.rows), default=0.0)

    @property
    def max_witness(self) -> float:
        return max((r.witness_norm for r in self.rows), default=0.0)

    @property
    def max_analyticity(self) -> float:
        return max((r.analyticity_residual for r in self.rows), default=0.0)


_CR_STEPS = (1e-4, 1e-5)  # the two step sizes of the Cauchy-Riemann probe


def nevanlinna_diagnostics(
    sys: SystemSpec,
    bc: BoundaryConditions,
    grid,
    *,
    engine: Engine | None = None,
    analyticity_probe: bool = True,
) -> NevanlinnaReport:
    """Check the Nevanlinna properties of the Weyl matrix over a grid.

    Per sample: the symmetry residual ``|M(lam) - M(conj lam)^*|``, the
    smallest eigenvalue of the imaginary part (sign-flipped into the upper
    half-plane), the witness norm, and a Cauchy-Riemann probe comparing
    difference quotients along the real and imaginary directions at two step
    sizes.  The samples, their conjugates and the probe points are three
    :func:`m_function_many` calls.
    """
    eng = engine or Engine(sys, bc)
    lams = [complex(lam) for lam in grid]
    samples = m_function_many(sys, bc, lams, engine=eng, with_witness=True)
    conjugates = m_function_many(sys, bc, [np.conj(lam) for lam in lams], engine=eng)
    probes = []
    if analyticity_probe:
        points = [z for lam in lams for h in _CR_STEPS for z in (lam + h, lam - h, lam + 1j * h, lam - 1j * h)]
        probes = [sample.m for sample in m_function_many(sys, bc, points, engine=eng)]
    report = NevanlinnaReport()
    for i, (lam, sample, sample_c) in enumerate(zip(lams, samples, conjugates)):
        sym = float(np.max(np.abs(sample.m - sample_c.m.conj().T)))
        im = sample.imag_part if lam.imag > 0 else -sample.imag_part
        min_eig = float(np.min(np.linalg.eigvalsh(im)))
        cr = _cauchy_riemann_residual(probes[8 * i : 8 * i + 8]) if analyticity_probe else 0.0
        report.rows.append(
            DiagnosticsRow(
                lam=lam,
                symmetry_residual=sym,
                min_imag_eig=min_eig,
                witness_norm=sample.witness_norm,
                analyticity_residual=cr,
            )
        )
    return report


def _cauchy_riemann_residual(ms: list[np.ndarray]) -> float:
    """Residual of the probe at one parameter ``lam`` from ``M`` at ``lam + h``,
    ``lam - h``, ``lam + ih`` and ``lam - ih`` for each step ``h`` of ``_CR_STEPS``."""
    worst = 0.0
    derivs = []
    for k, h in enumerate(_CR_STEPS):
        up, down, up_i, down_i = ms[4 * k : 4 * k + 4]
        dx = (up - down) / (2 * h)
        dy = (up_i - down_i) / (2j * h)
        scale = max(1.0, float(np.max(np.abs(dx))))
        worst = max(worst, float(np.max(np.abs(dx - dy))) / scale)
        derivs.append(dx)
    step_gap = float(np.max(np.abs(derivs[0] - derivs[1]))) / max(
        1.0, float(np.max(np.abs(derivs[1])))
    )
    return max(worst, 0.0 if step_gap < 1e-2 else step_gap)
