"""Per-problem workspace owned by its caller.

Building block matrices for many spectral parameters repeats the same
fundamental-matrix solves; an :class:`Engine` memoizes them (and everything
derived from them) for one system.  The caller owns the engine: passing one
engine to several calls is how they share work, and a library entry point
given none builds a short-lived engine of its own.  There is no global state.

Both caches are :class:`~blockweyl.system.BoundedStore` instances, bounded,
lock-guarded and least recently used out first: solution rows
(:data:`ROW_CAPACITY` entries) and every other derived value
(:data:`MEMO_CAPACITY` entries: Weyl samples keyed by their boundary data,
Gram matrices, the norm-zero space, boundary validation).  Cached objects are
immutable after construction, so concurrent readers are safe.  The partition
and the anchors are computed on first use; two threads racing there compute
equal values.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable

import numpy as np

from .measures import IntervalSpec, integrate_bv
from .propagation import SolutionRow, solution_row
from .system import (
    BoundaryConditions,
    BoundedStore,
    SingularitySet,
    SystemSpec,
    choose_anchors,
    partition_points,
)

#: solution rows kept per engine (a row with a smooth stretch holds its Magnus meshes)
ROW_CAPACITY = 256
#: other derived values kept per engine; windows of one problem reuse them
MEMO_CAPACITY = 4096


class Engine:
    """Memoized builders bound to one system (and optionally its boundary data)."""

    def __init__(self, sys: SystemSpec, bc: BoundaryConditions | None = None):
        self.sys = sys
        self.bc = bc
        self._rows = BoundedStore(ROW_CAPACITY)
        self._memo = BoundedStore(MEMO_CAPACITY)

    # -- structural analysis -------------------------------------------------

    @cached_property
    def sing(self) -> SingularitySet:
        return partition_points(self.sys)

    @cached_property
    def anchors(self) -> list[float]:
        return choose_anchors(self.sys, self.sing)

    @property
    def block_count(self) -> int:
        return len(self.sing.partition) + 1

    @property
    def coeff_dim(self) -> int:
        return self.sys.dim * self.block_count

    @property
    def J_blocks_inv(self) -> np.ndarray:
        return np.kron(np.eye(self.block_count), self.sys.J_inv)

    # -- fundamental rows ----------------------------------------------------

    def row(self, lam: complex | np.ndarray) -> SolutionRow:
        """Solution row at one cached parameter, or stacked over an array.

        An array of parameters (an eigen-scan grid) is built in one pass,
        its Magnus meshes in shared lockstep rounds, and bypasses the cache:
        no later call revisits it.  ``row(lams)[i]`` is bitwise ``row(lams[i])``.
        """
        if np.ndim(lam):
            return solution_row(self.sys, lam, sing=self.sing, anchors=self.anchors)
        lam = complex(lam)
        return self._rows.get(lam, lambda: solution_row(self.sys, lam, sing=self.sing, anchors=self.anchors))

    def rows(self, lams) -> list[SolutionRow]:
        """Cached solution rows at the parameters ``lams``, in order.

        The rows that a peek at the store does not find are built together by
        one array call of :meth:`row`, so that a resolvent's rows at ``lam``
        and ``conj(lam)`` share their Magnus rounds, and each is stored,
        bitwise the row its own build would store.
        """
        lams = [complex(lam) for lam in lams]
        stored = self._rows.peek(lams)
        missing = list(dict.fromkeys(lam for lam in lams if lam not in stored))
        built = self.row(np.array(missing)) if missing else []
        fresh = {lam: self._rows.get(lam, lambda i=i: built[i]) for i, lam in enumerate(missing)}
        return [fresh[lam] if lam in fresh else self.row(lam) for lam in lams]

    # -- derived values --------------------------------------------------------

    def memo(self, key, factory: Callable[[], object]):
        """Value cached under ``key``, built by ``factory`` on a miss."""
        return self._memo.get(key, factory)

    def memo_many(self, keys, factory: Callable[[list[int]], list]) -> list:
        """Values cached under ``keys``; ``factory(missing)`` builds the values
        of the keys not cached, given by position, in one call.

        Every key then goes through :meth:`memo`, which stores the new values
        and returns the cached ones as they are.
        """
        stored = self._memo.peek(keys)
        cached = {i: stored[key] for i, key in enumerate(keys) if key in stored}
        missing = [i for i in range(len(keys)) if i not in cached]
        values = dict(zip(missing, factory(missing))) if missing else {}
        values.update(cached)
        return [self.memo(key, lambda i=i: values[i]) for i, key in enumerate(keys)]

    def gram(self, lam: complex = 0.0) -> np.ndarray:
        """Weighted Gram matrix of the solution row at ``conj(lam)``."""
        lam = complex(lam)

        def build() -> np.ndarray:
            row = self.row(np.conj(lam))
            a, b = self.sys.interval

            def quadratic(xs: np.ndarray, dws: np.ndarray) -> np.ndarray:
                vals = row.balanced_many(xs)       # (m, n, width)
                return np.einsum("mia,mij,mjb->mab", np.conj(vals), dws, vals)

            val = integrate_bv(
                quadratic, self.sys.w, IntervalSpec(a, b),
                breakpoints=self.sys.atom_positions(), tols=self.sys.tols,
            )
            return 0.5 * (val + val.conj().T)  # PSD by construction; symmetrize roundoff

        return self.memo(("gram", lam), build)
