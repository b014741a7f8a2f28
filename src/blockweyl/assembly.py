"""Block matrices coupling the subinterval solutions.

With partition points ``x_1 < ... < x_N`` a candidate solution is described by
one coefficient vector per subinterval, stacked into ``C^{n(N+1)}``.  Three
families of conditions act on that stack:

* junction rows enforcing the atom condition at every partition point,
* square-integrability rows near singular endpoints (deficiency projectors),
* the boundary-condition rows built from the endpoint data.

Together with the projector that removes norm-zero solutions they form the
rectangular constraint matrix and the source maps whose (pseudo)inverse yields
the Weyl matrix.

Every builder takes one spectral parameter or a 1-D array of them; for an
array each parameter-dependent block carries a leading axis over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import numpy as np

from .engine import Engine
from .propagation import SolutionRow
from .errors import ConfigError, TheoryViolationError
from .system import BoundaryConditions, SystemSpec, jump_matrices


def _strip_first(n: int, N: int) -> np.ndarray:
    """Block matrix dropping the first n entries of a stacked vector."""
    return np.hstack([np.zeros((n * N, n)), np.eye(n * N)])


def _strip_last(n: int, N: int) -> np.ndarray:
    return np.hstack([np.eye(n * N), np.zeros((n * N, n))])


def _kernel_basis(mat: np.ndarray, rel_tol: float) -> np.ndarray:
    """Orthonormal kernel basis columns of a (possibly empty) matrix."""
    cols = mat.shape[1]
    if mat.size == 0 or not np.any(mat):
        return np.eye(cols, dtype=complex)
    u, s, vh = np.linalg.svd(mat)
    cutoff = rel_tol * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    return vh[rank:].conj().T


def _per_lam(fn, lam) -> np.ndarray:
    """``fn`` of one spectral parameter, stacked over an array ``lam``."""
    if np.ndim(lam):
        return np.stack([fn(one) for one in lam])
    return fn(lam)


def jump_system(sys: SystemSpec, lam, *, engine: Engine | None = None, row: SolutionRow | None = None):
    """Junction matrices ``(defect, mean)`` acting on stacked coefficients.

    ``defect @ c`` evaluates ``B_plus u_plus - B_minus u_minus`` at every
    partition point for the solution family with coefficients ``c``;
    ``mean @ c`` evaluates ``B_plus u_plus + B_minus u_minus``.  For ``N = 0``
    both have zero rows.  ``row`` is the solution row at ``lam`` when the
    caller already holds it.
    """
    eng = engine or Engine(sys)
    n = sys.dim
    N = len(eng.sing.partition)
    width = n * (N + 1)
    if N == 0:
        z = np.zeros(np.shape(lam) + (0, width), dtype=complex)
        return z, z.copy()
    if row is None:
        row = eng.row(lam)
    bplus = []
    bplus_conj_star = []
    u_right = []
    u_left = []
    for k, xk in enumerate(eng.sing.partition, start=1):
        _, bp = jump_matrices(sys, xk, lam)
        bplus.append(bp)
        _, bp_c = jump_matrices(sys, xk, np.conj(lam))
        bplus_conj_star.append(np.swapaxes(bp_c, -1, -2).conj())
        u_right.append(row.fundamentals[k].right(xk))
        u_left.append(row.fundamentals[k - 1].left(xk))

    calB = _block_diag(bplus)
    calB_star = _block_diag(bplus_conj_star)
    Uplus = _block_diag(u_right)
    Uminus = _block_diag(u_left)
    Et = _strip_first(n, N)
    Eb = _strip_last(n, N)
    defect = calB @ Uplus @ Et + calB_star @ Uminus @ Eb
    mean = calB @ Uplus @ Et - calB_star @ Uminus @ Eb
    return defect, mean


def _block_diag(blocks) -> np.ndarray:
    """Block-diagonal matrix of equally stacked blocks."""
    n = sum(b.shape[-2] for b in blocks)
    m = sum(b.shape[-1] for b in blocks)
    out = np.zeros(blocks[0].shape[:-2] + (n, m), dtype=complex)
    r = c = 0
    for b in blocks:
        out[..., r : r + b.shape[-2], c : c + b.shape[-1]] = b
        r += b.shape[-2]
        c += b.shape[-1]
    return out


def norm_zero_space(sys: SystemSpec, *, engine: Engine | None = None):
    """Coefficients of norm-zero global solutions and the projector off them.

    A stacked coefficient vector describes a norm-zero solution of the full
    equation exactly when it lies in the kernel of the junction matrix at
    ``lam = 0`` and of the weighted Gram matrix (positive semidefinite, so its
    kernel is precisely the set of vectors whose solution has zero norm).
    Returns ``(basis, projector)`` with orthonormal basis columns.
    """
    eng = engine or Engine(sys)

    def build():
        defect, _ = jump_system(sys, 0.0, engine=eng)
        gram = eng.gram(0.0)
        stack = np.vstack([defect, gram])
        basis = _kernel_basis(stack, sys.tols.rank_rel)
        proj = np.eye(eng.coeff_dim, dtype=complex) - basis @ basis.conj().T
        return basis, proj

    return eng.memo("norm_zero", build)


def transform_range_dim(sys: SystemSpec, *, engine: Engine | None = None):
    """Dimension of the space of transforms of compactly supported data.

    Computed as the coefficient dimension minus the Gram-kernel dimension at
    ``lam = 0`` (the dimension does not depend on the spectral parameter).
    Also reports whether it equals the rank of the norm-zero projector.
    """
    eng = engine or Engine(sys)
    gram = eng.gram(0.0)
    ker = _kernel_basis(gram, sys.tols.rank_rel)
    dim_b = eng.coeff_dim - ker.shape[1]
    _, proj = norm_zero_space(sys, engine=eng)
    ran_p = int(round(float(np.real(np.trace(proj)))))
    return dim_b, dim_b == ran_p


def deficiency_projectors(sys: SystemSpec, lam, *, engine: Engine | None = None):
    """Projectors onto coefficients of square-integrable solutions near the ends.

    Regular endpoints give the identity.  Singular endpoints require the span
    supplied with the endpoint data (constant or as a function of ``lam``);
    only a span that depends on ``lam`` gives a stacked projector.
    """
    n = sys.dim

    def projector(span) -> np.ndarray:
        mat = np.asarray(span, dtype=complex)
        if mat.size == 0:
            return np.zeros((n, n), dtype=complex)
        q, _ = np.linalg.qr(mat.reshape(n, -1))
        return q @ q.conj().T

    def one(ep) -> np.ndarray:
        if ep.regular:
            return np.eye(n, dtype=complex)
        span = ep.l2_span
        if span is None:
            raise ConfigError("singular endpoint needs an l2 span", field="endpoints")
        if callable(span):
            return _per_lam(lambda one_lam: projector(span(one_lam)), lam)
        return projector(span)

    return one(sys.endpoint_a), one(sys.endpoint_b)


def boundary_blocks(
    sys: SystemSpec,
    bc: BoundaryConditions,
    lam,
    *,
    engine: Engine | None = None,
    row: SolutionRow | None = None,
):
    """Endpoint blocks ``(A_minus, A_plus, script_A_minus, script_A_plus)``.

    ``A_minus = -Ga U_0^+(a) P_minus`` and ``A_plus = Gb U_N^-(b) P_plus``;
    the script variants embed them into the first/last block column of the
    stacked coefficient space.  ``row`` is as in :func:`jump_system`.
    """
    eng = engine or Engine(sys)
    eng.memo(("validated", bc), lambda: bc.validate(sys))  # a failure is not cached
    n = sys.dim
    N = len(eng.sing.partition)
    lead = np.shape(lam)
    p_minus, p_plus = deficiency_projectors(sys, lam, engine=eng)
    if row is None:
        row = eng.row(lam)
    a, b = sys.interval

    if sys.endpoint_a.regular:
        u0a = row.fundamentals[0].right(a)
        a_minus = -bc.Ga @ u0a @ p_minus
    elif sys.endpoint_a.boundary_limit is not None:
        a_minus = -_per_lam(lambda one: np.atleast_2d(np.asarray(
            sys.endpoint_a.boundary_limit(one), dtype=complex)), lam)
    elif not np.any(p_minus):
        a_minus = np.zeros(lead + (bc.count, n), dtype=complex)  # projector annihilates
    else:
        raise ConfigError("singular endpoint a needs a boundary_limit evaluator")

    if sys.endpoint_b.regular:
        unb = row.fundamentals[-1].left(b)
        a_plus = bc.Gb @ unb @ p_plus
    elif sys.endpoint_b.boundary_limit is not None:
        a_plus = _per_lam(lambda one: np.atleast_2d(np.asarray(
            sys.endpoint_b.boundary_limit(one), dtype=complex)), lam)
    elif not np.any(p_plus):
        a_plus = np.zeros(lead + (bc.count, n), dtype=complex)  # projector annihilates
    else:
        raise ConfigError("singular endpoint b needs a boundary_limit evaluator")

    pad = np.zeros(lead + (a_minus.shape[-2], n * N), dtype=complex)
    script_minus = np.concatenate([a_minus, pad], axis=-1)
    script_plus = np.concatenate([pad, a_plus], axis=-1)
    return a_minus, a_plus, script_minus, script_plus


@dataclass
class BlockAssembly:
    """All block matrices of one spectral parameter, or stacked over an array.

    ``constraints`` stacks the junction rows, the two square-integrability
    rows, the boundary rows and the norm-zero projector complement; the three
    source maps, built from ``x_rows``/``y_rows`` on first use, are the
    right-hand sides of the one-sided and averaged representations.
    ``projector`` does not depend on the parameter and is never stacked.
    """

    lam: complex | np.ndarray
    jump_defect: np.ndarray
    jump_mean: np.ndarray
    q_minus: np.ndarray
    q_plus: np.ndarray
    script_a_minus: np.ndarray
    script_a_plus: np.ndarray
    projector: np.ndarray
    constraints: np.ndarray
    x_rows: list[np.ndarray]
    y_rows: list[np.ndarray]

    @property
    def coeff_dim(self) -> int:
        return self.constraints.shape[-1]

    def _source(self, blocks: list[np.ndarray]) -> np.ndarray:
        """``blocks`` stacked over zero rows in place of the projector rows."""
        width = self.coeff_dim
        zero = np.zeros(self.constraints.shape[:-2] + (width, width), dtype=complex)
        return np.concatenate(blocks + [zero], axis=-2)

    @cached_property
    def source_left(self) -> np.ndarray:
        return -self._source(self.y_rows)

    @cached_property
    def source_right(self) -> np.ndarray:
        return self._source(self.x_rows)

    @cached_property
    def source_mean(self) -> np.ndarray:
        return 0.5 * (self.source_left + self.source_right)


def assemble_blocks(
    sys: SystemSpec,
    bc: BoundaryConditions,
    lam,
    *,
    engine: Engine | None = None,
    check_rank: bool = True,
) -> BlockAssembly:
    """Build the constraint matrix and source maps at ``lam``.

    ``lam`` is one spectral parameter or a 1-D array of them; an array is
    assembled in one pass and gives stacked fields, with both checks below
    applied to each parameter.  For nonreal ``lam`` away from the exceptional
    set the constraint matrix must have full column rank; a deficiency there
    signals either a modelling bug or a parameter too close to an exceptional
    point and raises :class:`TheoryViolationError` (unless
    ``check_rank=False``, used when the caller scans real parameters).
    """
    eng = engine or Engine(sys, bc)
    n = sys.dim
    N = len(eng.sing.partition)
    width = n * (N + 1)
    lead = np.shape(lam)

    row = eng.row(lam)  # built once: an array of parameters is not cached
    defect, mean = jump_system(sys, lam, engine=eng, row=row)
    p_minus, p_plus = deficiency_projectors(sys, lam, engine=eng)
    _, _, s_minus, s_plus = boundary_blocks(sys, bc, lam, engine=eng, row=row)
    del row  # a stacked row is large; nothing below needs it
    q_minus = np.zeros(lead + (n, width), dtype=complex)
    q_minus[..., :n] = np.eye(n) - p_minus
    q_plus = np.zeros(lead + (n, width), dtype=complex)
    q_plus[..., width - n :] = np.eye(n) - p_plus
    _, proj = norm_zero_space(sys, engine=eng)
    comp = np.eye(width, dtype=complex) - proj

    # one-sided pieces of the junction rows
    left_part = 0.5 * (defect - mean)    # B(conj)^* U^- E_bot
    right_part = 0.5 * (defect + mean)   # B U^+ E_top

    comp_rows = np.broadcast_to(comp, lead + comp.shape) if lead else comp
    bnd = s_minus + s_plus
    zeros_q = np.zeros_like(q_minus)
    constraints = np.concatenate([defect, q_minus, q_plus, bnd, comp_rows], axis=-2)

    # boundary rows must annihilate norm-zero solutions; rows that do not are
    # not induced by square-integrable solution pairs and break the theory
    if bnd.size:
        flat = bnd.reshape((-1,) + bnd.shape[-2:])
        resid = np.max(np.abs(flat @ comp), axis=(1, 2))
        bad = resid > 1e-8 * np.maximum(1.0, np.max(np.abs(flat), axis=(1, 2)))
        if bad.any():
            raise TheoryViolationError(
                "boundary rows do not annihilate the norm-zero solution space "
                f"(residual {resid[np.argmax(bad)]:.3e}); they cannot come from square-integrable "
                "solution pairs of the equation"
            )

    lams = np.ravel(np.asarray(lam, dtype=complex))
    nonreal = np.flatnonzero(lams.imag != 0.0) if check_rank else []
    if len(nonreal):
        flat = constraints.reshape((-1,) + constraints.shape[-2:])[nonreal]
        s = np.linalg.svd(flat, compute_uv=False)
        bad = s[:, -1] <= sys.tols.rank_rel * s[:, 0] if s.shape[1] == width else np.ones(len(s), bool)
        if bad.any():
            k = int(np.argmax(bad))
            raise TheoryViolationError(
                f"constraint matrix is column-rank deficient at lambda={complex(lams[nonreal[k]])!r} "
                f"(sigma_min/sigma_max = {s[k, -1] / s[k, 0]:.3e}); the parameter may "
                "sit on the exceptional set or the model is inconsistent"
            )

    return BlockAssembly(
        lam=np.asarray(lam, dtype=complex) if lead else complex(lam),
        jump_defect=defect,
        jump_mean=mean,
        q_minus=q_minus,
        q_plus=q_plus,
        script_a_minus=s_minus,
        script_a_plus=s_plus,
        projector=proj,
        constraints=constraints,
        x_rows=[right_part, q_minus, zeros_q, s_minus],
        y_rows=[left_part, zeros_q, q_plus, s_plus],
    )
