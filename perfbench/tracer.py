"""Per-layer tracing of blockweyl from outside the package.

The tracer replaces the public functions of each layer module with thin
wrappers, in every module namespace that bound them (``m_function`` lives in
``weyl``, ``spectral`` and the package root, for instance), so ``src/`` stays
untouched.  Three kinds of wrapper exist:

* ``span``: a recorded span ``(name, start, end, parent, op)`` plus calls and
  self time (span duration minus the time covered by child frames);
* ``timed``: calls and self time, no span record (frequent, short callees);
* ``count``: calls only (hot leaves such as ``density_at``).

Targets that a later version of the package no longer has are skipped; their
metrics are then reported as absent instead of zero.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# numpy.linalg kernels counted under linalg.<name>; scipy's expm is bound in
# the package under its own name and counted as linalg.expm.
LINALG_FUNCS = ("svd", "eig", "eigh", "eigvalsh", "inv", "solve", "det", "cond", "qr", "matrix_rank")

# Per-layer metrics and their units, in report order.
PER_LAYER = {
    "engine.row.calls": "count",
    "engine.row.builds": "count",
    "engine.row.hit_ratio": "ratio",
    "engine.memo.calls": "count",
    "engine.memo.builds": "count",
    "engine.memo.hit_ratio": "ratio",
    "engine.gram.calls": "count",
    "engine.gram.self_s": "s",
    "propagation.solution_row.calls": "count",
    "propagation.solution_row.self_s": "s",
    "propagation.row_eval.calls": "count",
    "propagation.row_eval_many.calls": "count",
    "propagation.row_eval_many.points": "count",
    "propagation.forward_transform_compact.calls": "count",
    "propagation.forward_transform_compact.self_s": "s",
    "propagation.ode.calls": "count",
    "propagation.ode.self_s": "s",
    "propagation.ode.nfev": "count",
    "assembly.assemble_blocks.calls": "count",
    "assembly.assemble_blocks.self_s": "s",
    "assembly.jump_system.calls": "count",
    "assembly.norm_zero_space.calls": "count",
    "weyl.m_function.calls": "count",
    "weyl.m_function.self_s": "s",
    "weyl.symmetry_witness.calls": "count",
    "weyl.symmetry_witness.self_s": "s",
    "spectral.spectral_measure_model.calls": "count",
    "spectral.spectral_measure_model.self_s": "s",
    "spectral.eigen_scan.calls": "count",
    "spectral.eigen_scan.self_s": "s",
    "spectral.atom_weight.calls": "count",
    "spectral.atom_weight.self_s": "s",
    "spectral.resolvent_build.calls": "count",
    "spectral.resolvent_build.self_s": "s",
    "spectral.resolvent_eval.calls": "count",
    "spectral.resolvent_eval.self_s": "s",
    "quadrature.integrate.calls": "count",
    "quadrature.integrate.self_s": "s",
    "quadrature.integrate.nodes": "count",
    "quadrature.integrate.panels": "count",
    "quadrature.integrate.failed": "count",
    "measures.density_at.calls": "count",
    "measures.density_many.calls": "count",
    "measures.density_many.points": "count",
    "measures.integrate_bv.calls": "count",
    "measures.integrate_bv.self_s": "s",
    "transform.forward_transform.calls": "count",
    "transform.forward_transform.self_s": "s",
    "transform.w_inner.calls": "count",
    "transform.w_inner.self_s": "s",
    "system.partition_points.calls": "count",
    "system.partition_points.self_s": "s",
    "system.jump_matrices.calls": "count",
    "system.jump_matrices.self_s": "s",
    "cli.load.self_s": "s",
    "linalg.calls": "count",
    "linalg.self_s": "s",
    "linalg.svd.calls": "count",
    "linalg.eig.calls": "count",
    "linalg.eigh.calls": "count",
    "linalg.inv.calls": "count",
    "linalg.solve.calls": "count",
    "linalg.det.calls": "count",
    "linalg.cond.calls": "count",
    "linalg.expm.calls": "count",
    "trace.overhead_ratio": "ratio",
}

# Layers whose work happens once, before the timed operations; these metrics
# are summed over the whole traced process, every other one over the
# operations only.
SETUP_LAYERS = ("cli.load", "system.partition_points")


class Tracer:
    """Counters, self times and spans of one traced process.

    ``op`` is the id of the running operation (-1 during set-up).  Tracing
    runs only while ``enabled`` is set; correctness gates turn it off.
    """

    def __init__(self):
        self.enabled = False
        self.op = -1
        self.stats = {"setup": defaultdict(lambda: defaultdict(float)),
                      "ops": defaultdict(lambda: defaultdict(float))}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []
        self._frames: list[list] = []       # [span index or -1, start, child time]
        self._open_spans: list[int] = []
        self._linalg_depth = 0
        self.present: set[str] = set()   # layers whose wrap target was found
        self.absent: set[str] = set()    # single metrics whose target was not

    # -- accounting ----------------------------------------------------------

    def bucket(self, name: str):
        return self.stats["setup" if self.op < 0 else "ops"][name]

    def enter(self, name: str, record: bool) -> None:
        idx = -1
        if record:
            idx = len(self.spans)
            self.spans.append(None)
        self._frames.append([idx, time.perf_counter(), 0.0])
        if record:
            self._open_spans.append(idx)

    def leave(self, name: str) -> None:
        end = time.perf_counter()
        idx, start, child = self._frames.pop()
        dur = end - start
        if self._frames:
            self._frames[-1][2] += dur
        b = self.bucket(name)
        b["calls"] += 1
        b["self_s"] += dur - child
        if idx >= 0:
            self._open_spans.pop()
            parent = self._open_spans[-1] if self._open_spans else -1
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            self.spans[idx] = (nid, start, end, parent, self.op)

    # -- wrappers ------------------------------------------------------------

    def wrap(self, name: str, fn, kind: str = "span", points_arg: int | None = None, after=None):
        """Wrapper recording calls of ``fn`` under ``name``.

        ``points_arg`` names the positional argument whose length is added to
        the ``points`` counter; ``after(result)`` sees each return value.  A
        call that raises is also counted under ``failed``.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            bucket = tracer.bucket(name)
            if points_arg is not None:
                bucket["points"] += len(args[points_arg])
            if kind == "count":
                bucket["calls"] += 1
                result = fn(*args, **kwargs)
            else:
                tracer.enter(name, kind == "span")
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    bucket["failed"] += 1
                    raise
                finally:
                    tracer.leave(name)
            if after is not None:
                after(result)
            return result

        return wrapper

    def bump(self, layer: str, field: str):
        """An ``after`` hook adding one to a counter of ``layer``."""
        def after(_result):
            self.bucket(layer)[field] += 1
        return after

    def wrap_kernel(self, name: str, fn):
        """Timed wrapper for a linear-algebra kernel; nested kernels are not counted."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled or tracer._linalg_depth:
                return fn(*args, **kwargs)
            tracer.bucket(f"linalg.{name}")["calls"] += 1
            tracer._linalg_depth += 1
            tracer.enter("linalg", False)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leave("linalg")
                tracer._linalg_depth -= 1

        return wrapper

    def wrap_row(self, fn):
        """``Engine.row``: a call is a hit when it builds no row itself."""
        tracer = self

        @functools.wraps(fn)
        def row(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            bucket = tracer.bucket("engine.row")
            bucket["calls"] += 1
            builds = bucket["builds"]
            result = fn(*args, **kwargs)
            if bucket["builds"] == builds:
                bucket["hits"] += 1
            return result

        return row

    def wrap_memo(self, fn):
        """``Engine.memo(key, factory)``: builds are counted at the factory."""
        tracer = self

        @functools.wraps(fn)
        def memo(eng, key, factory):
            if not tracer.enabled:
                return fn(eng, key, factory)
            bucket = tracer.bucket("engine.memo")
            bucket["calls"] += 1

            def counted():
                bucket["builds"] += 1
                return factory()

            return fn(eng, key, counted)

        return memo

    def wrap_integrate(self, fn):
        """``quadrature.integrate``: a span whose integrand counts its nodes."""
        tracer = self
        spanned = self.wrap("quadrature.integrate", fn)

        @functools.wraps(fn)
        def integrate(f, lo, hi, *args, **kwargs):
            if not tracer.enabled:
                return fn(f, lo, hi, *args, **kwargs)
            if not lo < hi:  # degenerate range: one probe call, no panel
                return spanned(f, lo, hi, *args, **kwargs)
            vectorized = kwargs.get("vectorized", False)
            bucket = tracer.bucket("quadrature.integrate")

            def counted(x):
                bucket["nodes"] += len(x) if vectorized else 1
                return f(x)

            return spanned(counted, lo, hi, *args, **kwargs)

        return integrate

    # -- output --------------------------------------------------------------

    def total(self, layer: str, field: str) -> float:
        """Sum of one counter over the operations (and set-up, for set-up layers)."""
        value = self.stats["ops"][layer][field] if layer in self.stats["ops"] else 0.0
        if layer.startswith(SETUP_LAYERS) and layer in self.stats["setup"]:
            value += self.stats["setup"][layer][field]
        return value

    def metrics(self) -> dict:
        """Per-layer values by metric name; layers not found are left out."""
        out = {}
        for metric in PER_LAYER:
            layer, _, field = metric.rpartition(".")
            if layer not in self.present or metric in self.absent:
                continue
            if field == "hit_ratio":
                calls = self.total(layer, "calls")
                out[metric] = (calls - self.total(layer, "builds")) / calls if calls else 0.0
            else:
                out[metric] = self.total(layer, field)
        return out

    def op_ids(self) -> set[int]:
        return {s[4] for s in self.spans if s is not None and s[4] >= 0}

    def write_spans(self, path: Path) -> None:
        """Store the spans as parallel arrays in one ``.npz`` file."""
        rows = np.array([s for s in self.spans if s is not None], dtype=float).reshape(-1, 5)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=rows[:, 0].astype(np.int32),
            start=rows[:, 1],
            end=rows[:, 2],
            parent=rows[:, 3].astype(np.int64),
            op=rows[:, 4].astype(np.int64),
        )


# ---------------------------------------------------------------------------
# installing the wrappers

_MODULES = ("engine", "measures", "system", "propagation", "assembly", "weyl",
            "spectral", "transform", "quadrature", "cli")


def _rebind(modules, original, replacement) -> bool:
    """Point every module attribute bound to ``original`` at ``replacement``."""
    found = False
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                found = True
    return found


def _rebind_method(cls, method: str, make) -> bool:
    """Replace ``cls.method`` and its aliases in the class by ``make(function)``."""
    if cls is None or method not in vars(cls):
        return False
    raw = vars(cls)[method]
    static = isinstance(raw, staticmethod)
    fn = raw.__func__ if static else raw
    wrapped = make(fn)
    for attr, value in list(vars(cls).items()):
        if (value.__func__ if isinstance(value, staticmethod) else value) is fn:
            setattr(cls, attr, staticmethod(wrapped) if static else wrapped)
    return True


def install(tracer: Tracer) -> Tracer:
    """Wrap the layer functions of the imported package for ``tracer``."""
    import blockweyl
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    from scipy.linalg import expm

    mods = {"blockweyl": blockweyl}
    for name in _MODULES:
        try:
            mods[name] = importlib.import_module(f"blockweyl.{name}")
        except ImportError:
            continue
    every = list(mods.values())

    def attr(module: str, name: str):
        return getattr(mods.get(module), name, None)

    def func(layer: str, module: str, name: str, kind: str = "span", **options):
        original = attr(module, name)
        if callable(original):
            wrapped = tracer.wrap(layer, original, kind, **options)
            if _rebind(every, original, wrapped):
                tracer.present.add(layer)

    def method(layer: str, module: str, cls: str, name: str, make):
        if _rebind_method(attr(module, cls), name, make):
            tracer.present.add(layer)

    # engine
    method("engine.row", "engine", "Engine", "row", tracer.wrap_row)
    method("engine.memo", "engine", "Engine", "memo", tracer.wrap_memo)
    method("engine.gram", "engine", "Engine", "gram", lambda fn: tracer.wrap("engine.gram", fn))

    # propagation; the engine's own binding of solution_row counts row builds
    func("propagation.solution_row", "propagation", "solution_row")
    if callable(attr("engine", "solution_row")):
        mods["engine"].solution_row = tracer.wrap(
            "engine.row.build", attr("engine", "solution_row"), "count",
            after=tracer.bump("engine.row", "builds"),
        )
    else:
        tracer.absent.update(("engine.row.builds", "engine.row.hit_ratio"))
    method("propagation.row_eval", "propagation", "SolutionRow", "value",
           lambda fn: tracer.wrap("propagation.row_eval", fn, "count"))
    method("propagation.row_eval_many", "propagation", "SolutionRow", "balanced_many",
           lambda fn: tracer.wrap("propagation.row_eval_many", fn, "count", points_arg=1))
    func("propagation.forward_transform_compact", "propagation", "forward_transform_compact")

    def add_nfev(result):
        tracer.bucket("propagation.ode")["nfev"] += getattr(result, "nfev", 0)

    if "propagation" in mods and _rebind(
        [mods["propagation"]], scipy_solve_ivp,
        tracer.wrap("propagation.ode", scipy_solve_ivp, after=add_nfev),
    ):
        tracer.present.add("propagation.ode")

    for name in ("assemble_blocks", "jump_system", "norm_zero_space"):
        func(f"assembly.{name}", "assembly", name)
    for name in ("m_function", "symmetry_witness"):
        func(f"weyl.{name}", "weyl", name)
    for name in ("spectral_measure_model", "eigen_scan", "atom_weight"):
        func(f"spectral.{name}", "spectral", name)
    method("spectral.resolvent_build", "spectral", "ResolventFunction", "__init__",
           lambda fn: tracer.wrap("spectral.resolvent_build", fn))
    for name in ("balanced", "left", "right"):
        method("spectral.resolvent_eval", "spectral", "ResolventFunction", name,
               lambda fn: tracer.wrap("spectral.resolvent_eval", fn))

    # quadrature: nodes are counted at the integrand, panels at the panel rule
    integrate = attr("quadrature", "integrate")
    if callable(integrate) and _rebind(every, integrate, tracer.wrap_integrate(integrate)):
        tracer.present.add("quadrature.integrate")
    panel = attr("quadrature", "_panel")
    if callable(panel):
        mods["quadrature"]._panel = tracer.wrap(
            "quadrature.panel", panel, "count",
            after=tracer.bump("quadrature.integrate", "panels"),
        )
    else:
        tracer.absent.add("quadrature.integrate.panels")

    method("measures.density_at", "measures", "MatrixMeasure", "density_at",
           lambda fn: tracer.wrap("measures.density_at", fn, "count"))
    method("measures.density_many", "measures", "MatrixMeasure", "density_many",
           lambda fn: tracer.wrap("measures.density_many", fn, "count", points_arg=1))
    func("measures.integrate_bv", "measures", "integrate_bv")
    for name in ("forward_transform", "w_inner"):
        func(f"transform.{name}", "transform", name)
    func("system.partition_points", "system", "partition_points")
    func("system.jump_matrices", "system", "jump_matrices", "timed")
    method("cli.load", "cli", "ProblemConfig", "load", lambda fn: tracer.wrap("cli.load", fn))

    # kernels: the numpy.linalg namespace, and scipy's expm where the package bound it
    for name in LINALG_FUNCS:
        original = getattr(np.linalg, name, None)
        if callable(original):
            setattr(np.linalg, name, tracer.wrap_kernel(name, original))
            tracer.present.update(("linalg", f"linalg.{name}"))
    if _rebind(every, expm, tracer.wrap_kernel("expm", expm)):
        tracer.present.add("linalg.expm")
    return tracer
