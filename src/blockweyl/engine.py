"""Per-problem workspace owned by its caller.

Building block matrices for many spectral parameters repeats the same
fundamental-matrix solves; an :class:`Engine` memoizes them (and everything
derived from them) for one system.  The caller owns the engine: passing one
engine to several calls is how they share work, and a library entry point
given none builds a short-lived engine of its own.  There is no global state.

Both caches are bounded LRU stores served by one lookup: solution rows
(:data:`ROW_CAPACITY` entries) and every other derived value
(:data:`MEMO_CAPACITY` entries: Weyl samples keyed by their boundary data,
Gram matrices, the norm-zero space, boundary validation).  Cached objects are
immutable after construction, so concurrent readers are safe; cache access is
guarded by a lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable

import numpy as np

from .measures import IntervalSpec, integrate_bv
from .propagation import SolutionRow, solution_row
from .system import (
    BoundaryConditions,
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
        self._lock = threading.RLock()
        self._rows: OrderedDict[complex, SolutionRow] = OrderedDict()
        self._memo: OrderedDict = OrderedDict()
        self._sing: SingularitySet | None = None
        self._anchors: list[float] | None = None

    def _lookup(self, store: OrderedDict, capacity: int, key, factory: Callable[[], object]):
        """``store[key]``, built by ``factory`` on a miss; least recently used entries go first.

        The factory runs outside the lock; when two threads race on one key
        the first value stored wins.
        """
        with self._lock:
            if key in store:
                store.move_to_end(key)
                return store[key]
        value = factory()
        with self._lock:
            value = store.setdefault(key, value)
            while len(store) > capacity:
                store.popitem(last=False)
            return value

    # -- structural analysis -------------------------------------------------

    @property
    def sing(self) -> SingularitySet:
        with self._lock:
            if self._sing is None:
                self._sing = partition_points(self.sys)
            return self._sing

    @property
    def anchors(self) -> list[float]:
        with self._lock:
            if self._anchors is None:
                self._anchors = choose_anchors(self.sys, self.sing)
            return self._anchors

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

        An array of parameters (an eigen-scan grid) is built in one pass and
        bypasses the cache: no later call revisits it.
        """
        if np.ndim(lam):
            return solution_row(self.sys, lam, sing=self.sing, anchors=self.anchors)
        lam = complex(lam)
        return self._lookup(
            self._rows, ROW_CAPACITY, lam,
            lambda: solution_row(self.sys, lam, sing=self.sing, anchors=self.anchors),
        )

    # -- derived values --------------------------------------------------------

    def memo(self, key, factory: Callable[[], object]):
        """Value cached under ``key``, built by ``factory`` on a miss."""
        return self._lookup(self._memo, MEMO_CAPACITY, key, factory)

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
