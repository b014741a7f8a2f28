"""Shared per-problem workspace.

Building block matrices for many spectral parameters repeats the same
fundamental-matrix solves; an :class:`Engine` memoizes them (and everything
derived from them) per ``(system, boundary)`` pair.  All cached objects are
immutable after construction, so concurrent readers are safe; cache insertion
is guarded by a lock.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Callable

import numpy as np

from . import quadrature
from .propagation import SolutionRow, solution_row
from .system import (
    BoundaryConditions,
    SingularitySet,
    SystemSpec,
    choose_anchors,
    partition_points,
    subintervals,
)

_REGISTRY: "weakref.WeakKeyDictionary[SystemSpec, dict]" = weakref.WeakKeyDictionary()
_REGISTRY_LOCK = threading.Lock()


class Engine:
    """Memoized builders bound to one system (and optionally its boundary data)."""

    def __init__(self, sys: SystemSpec, bc: BoundaryConditions | None = None, max_rows: int = 256):
        self.sys = sys
        self.bc = bc
        self._lock = threading.RLock()
        self._rows: OrderedDict[complex, SolutionRow] = OrderedDict()
        self._max_rows = max_rows
        self._memo: dict = {}
        self._sing: SingularitySet | None = None
        self._anchors: list[float] | None = None

    # -- registry ----------------------------------------------------------

    @staticmethod
    def get(sys: SystemSpec, bc: BoundaryConditions | None = None) -> "Engine":
        with _REGISTRY_LOCK:
            per_sys = _REGISTRY.setdefault(sys, {})
            key = id(bc) if bc is not None else None
            eng = per_sys.get(key)
            if eng is None:
                eng = Engine(sys, bc)
                per_sys[key] = eng
            return eng

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
    def intervals(self) -> list[tuple[float, float]]:
        return subintervals(self.sys, self.sing)

    @property
    def block_count(self) -> int:
        return len(self.sing.partition) + 1

    @property
    def coeff_dim(self) -> int:
        return self.sys.dim * self.block_count

    @property
    def J_blocks(self) -> np.ndarray:
        """Block-diagonal structure matrix of coefficient-space size."""
        return np.kron(np.eye(self.block_count), self.sys.J)

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
        with self._lock:
            if lam in self._rows:
                self._rows.move_to_end(lam)
                return self._rows[lam]
        built = solution_row(self.sys, lam, sing=self.sing, anchors=self.anchors)
        with self._lock:
            self._rows[lam] = built
            if len(self._rows) > self._max_rows:
                self._rows.popitem(last=False)
        return built

    # -- norm-zero solutions ---------------------------------------------------

    def gram(self, lam: complex = 0.0) -> np.ndarray:
        """Weighted Gram matrix of the solution row at ``conj(lam)``."""
        key = ("gram", complex(lam))
        with self._lock:
            if key in self._memo:
                return self._memo[key]
        row = self.row(np.conj(lam))
        a, b = self.sys.interval
        w = self.sys.w
        tols = self.sys.tols
        width = self.coeff_dim

        def quadratic(xs: np.ndarray) -> np.ndarray:
            vals = row.balanced_many(xs)       # (m, n, width)
            dens = w.density_many(xs)          # (m, n, n)
            return np.einsum("mia,mij,mjb->mab", np.conj(vals), dens, vals)

        val = np.zeros((width, width), dtype=complex)
        breaks = self.sys.atom_positions()
        for seg in w.segments:
            s_lo, s_hi = max(seg.interval[0], a), min(seg.interval[1], b)
            if s_hi <= s_lo:
                continue
            part, _ = quadrature.integrate(
                quadratic, s_lo, s_hi, breakpoints=breaks,
                rel_tol=tols.quad_rel, abs_tol=tols.quad_abs, vectorized=True,
            )
            val = val + part
        for x, dw in w.atoms:
            v = row.balanced(x)
            val = val + v.conj().T @ dw @ v
        val = 0.5 * (val + val.conj().T)  # PSD by construction; symmetrize roundoff
        with self._lock:
            self._memo[key] = val
        return val

    def memo(self, key, factory: Callable[[], object]):
        with self._lock:
            if key in self._memo:
                return self._memo[key]
        value = factory()
        with self._lock:
            self._memo.setdefault(key, value)
            return self._memo[key]
