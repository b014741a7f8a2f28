"""Block matrices coupling the subinterval solutions.

With partition points ``x_1 < ... < x_N`` a candidate solution is described by
one coefficient vector per subinterval, stacked into ``C^{n(N+1)}``.  Three
families of conditions act on that stack:

* junction rows enforcing the atom condition at every partition point,
* square-integrability rows near singular endpoints (deficiency projectors),
* the boundary-condition rows built from the endpoint data.

:data:`FAMILIES` names them as four row families, the integrability rows of
the two ends apart.

Together with the projector that removes norm-zero solutions they form the
rectangular constraint matrix and the source maps whose (pseudo)inverse yields
the Weyl matrix.

Every builder takes one spectral parameter or a 1-D array of them; for an
array each parameter-dependent block carries a leading axis over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
import numpy as np

from .engine import Engine
from .propagation import SolutionRow
from .errors import ConfigError, TheoryViolationError
from .system import BoundaryConditions, SystemSpec, jump_matrices


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


def _junction_sides(sys: SystemSpec, lam, eng: Engine, row: SolutionRow, right, left) -> None:
    """Write the one-sided parts of the junction rows into zeroed ``right``/``left``.

    The rows of partition point ``x_k`` get ``B_plus(x_k) U_k^+`` on block
    ``k`` of ``right`` and ``B_plus(x_k, conj lam)^* U_{k-1}^-`` on block
    ``k - 1`` of ``left``, from the limits stored at the block edges.
    """
    n = sys.dim
    for k, xk in enumerate(eng.sing.partition, start=1):
        at = slice(n * (k - 1), n * k)
        _, bp = jump_matrices(sys, xk, lam)
        _, bp_c = jump_matrices(sys, xk, np.conj(lam))
        bp_c_star = np.swapaxes(bp_c, -1, -2).conj()
        right[..., at, n * k : n * (k + 1)] = bp @ row.fundamentals[k].right_values[0]
        left[..., at, n * (k - 1) : n * k] = bp_c_star @ row.fundamentals[k - 1].left_values[-1]


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
    right = np.zeros(np.shape(lam) + (eng.coeff_dim - n, eng.coeff_dim), dtype=complex)
    left = np.zeros_like(right)
    if eng.sing.partition:  # with no junction rows no row is needed
        _junction_sides(sys, lam, eng, eng.row(lam) if row is None else row, right, left)
    return right + left, right - left


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


def _endpoint_blocks(sys: SystemSpec, bc: BoundaryConditions, lam, p_minus, p_plus, row: SolutionRow):
    """``(A_minus, A_plus)`` of :func:`boundary_blocks` from the deficiency projectors."""
    n = sys.dim
    lead = np.shape(lam)
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
    return a_minus, a_plus


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
    p_minus, p_plus = deficiency_projectors(sys, lam, engine=eng)
    a_minus, a_plus = _endpoint_blocks(sys, bc, lam, p_minus, p_plus, eng.row(lam) if row is None else row)
    pad = np.zeros(np.shape(lam) + (a_minus.shape[-2], sys.dim * len(eng.sing.partition)), dtype=complex)
    script_minus = np.concatenate([a_minus, pad], axis=-1)
    script_plus = np.concatenate([pad, a_plus], axis=-1)
    return a_minus, a_plus, script_minus, script_plus


#: the row families of the block system, in the order they are stacked
FAMILIES = ("junction", "q_minus", "q_plus", "boundary")


@dataclass
class BlockAssembly:
    """All block matrices of one spectral parameter, or stacked over an array.

    Every constraint row outside the projector rows is the sum of a part
    acting through the right limits of the solution row and one acting
    through its left limits: ``right`` and ``left`` stack these parts for the
    families of :data:`FAMILIES`, at the slices ``rows`` gives.  So
    ``constraints`` is ``right + left`` over the norm-zero projector
    complement ``I - P``, and the source maps of the two one-sided
    representations are ``[right; 0]`` and ``-[left; 0]``.  ``projector``
    does not depend on the parameter and is never stacked; ``svd`` is the
    thin SVD ``(u, s, vh)`` of ``constraints``, taken on first use.
    """

    lam: complex | np.ndarray
    right: np.ndarray
    left: np.ndarray
    rows: dict[str, slice]
    projector: np.ndarray
    constraints: np.ndarray

    @property
    def coeff_dim(self) -> int:
        return self.constraints.shape[-1]

    def family(self, name: str) -> np.ndarray:
        """The constraint rows of one family of :data:`FAMILIES`."""
        return self.constraints[..., self.rows[name], :]

    def split(self) -> list["BlockAssembly"]:
        """The assembly of each parameter of a stacked one, as views of its
        fields; an assembly of one parameter is a list of itself."""
        if not np.ndim(self.lam):
            return [self]
        return [BlockAssembly(lam=complex(lam), right=self.right[i], left=self.left[i], rows=self.rows,
                              projector=self.projector, constraints=self.constraints[i])
                for i, lam in enumerate(self.lam)]

    @cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return np.linalg.svd(self.constraints, full_matrices=False)

    def _source(self, side: np.ndarray) -> np.ndarray:
        """``side`` stacked over zero rows in place of the projector rows."""
        width = self.coeff_dim
        zero = np.zeros(side.shape[:-2] + (width, width), dtype=complex)
        return np.concatenate([side, zero], axis=-2)

    @cached_property
    def source_left(self) -> np.ndarray:
        return -self._source(self.left)

    @cached_property
    def source_right(self) -> np.ndarray:
        return self._source(self.right)

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
    row: SolutionRow | None = None,
) -> BlockAssembly:
    """Build the constraint matrix and source maps at ``lam``.

    ``lam`` is one spectral parameter or a 1-D array of them; an array is
    assembled in one pass and gives stacked fields, with both checks below
    applied to each parameter.  For nonreal ``lam`` away from the exceptional
    set the constraint matrix must have full column rank; a deficiency there
    signals either a modelling bug or a parameter too close to an exceptional
    point and raises :class:`TheoryViolationError` (unless
    ``check_rank=False``, used when the caller scans real parameters).
    ``row`` is as in :func:`jump_system`.
    """
    eng = engine or Engine(sys, bc)
    n = sys.dim
    width = eng.coeff_dim
    lead = np.shape(lam)

    if row is None:
        row = eng.row(lam)  # built once: an array of parameters is not cached
    p_minus, p_plus = deficiency_projectors(sys, lam, engine=eng)
    eng.memo(("validated", bc), lambda: bc.validate(sys))  # a failure is not cached
    a_minus, a_plus = _endpoint_blocks(sys, bc, lam, p_minus, p_plus, row)
    sizes = (width - n, n, n, a_minus.shape[-2])
    rows = {name: slice(stop - size, stop) for name, size, stop in zip(FAMILIES, sizes, accumulate(sizes))}
    right = np.zeros(lead + (sum(sizes), width), dtype=complex)
    left = np.zeros_like(right)
    junction = rows["junction"]
    _junction_sides(sys, lam, eng, row, right[..., junction, :], left[..., junction, :])
    del row  # a stacked row is large; nothing below needs it
    right[..., rows["q_minus"], :n] = np.eye(n) - p_minus
    left[..., rows["q_plus"], width - n :] = np.eye(n) - p_plus
    right[..., rows["boundary"], :n] = a_minus
    left[..., rows["boundary"], width - n :] = a_plus
    _, proj = norm_zero_space(sys, engine=eng)
    comp = np.eye(width, dtype=complex) - proj
    constraints = np.empty(lead + (sum(sizes) + width, width), dtype=complex)
    np.add(right, left, out=constraints[..., :-width, :])
    constraints[..., -width:, :] = comp
    asm = BlockAssembly(
        lam=np.asarray(lam, dtype=complex) if lead else complex(lam),
        right=right,
        left=left,
        rows=rows,
        projector=proj,
        constraints=constraints,
    )

    # boundary rows must annihilate norm-zero solutions; rows that do not are
    # not induced by square-integrable solution pairs and break the theory
    bnd = asm.family("boundary")
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
        s = asm.svd[1].reshape(len(lams), -1)[nonreal]
        bad = s[:, -1] <= sys.tols.rank_rel * s[:, 0]
        if bad.any():
            k = int(np.argmax(bad))
            raise TheoryViolationError(
                f"constraint matrix is column-rank deficient at lambda={complex(lams[nonreal[k]])!r} "
                f"(sigma_min/sigma_max = {s[k, -1] / s[k, 0]:.3e}); the parameter may "
                "sit on the exceptional set or the model is inconsistent"
            )
    return asm
