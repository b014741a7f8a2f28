"""Problem configs: JSON files parsed into the system objects.

Complex numbers are ``[re, im]`` pairs, densities per-entry polynomial
coefficient arrays in ascending degree.  Every section is parsed whatever
the command, and a malformed field in any of them raises :class:`ConfigError`
naming it.  The hypotheses of the theory are checked by the constructors of
:mod:`blockweyl.system` alone, at the config's tolerances:
:func:`validate_config` reports every violation, :meth:`ProblemConfig.load`
raises on the first.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, StructuralError
from .fatou import ScalarMeasureModel, ScalarSegment
from .measures import DEFAULT_TOLS, MatrixMeasure, Segment, Tolerances, ValidationReport
from .propagation import VectorFunction
from .system import BoundaryConditions, EndpointSpec, SystemSpec


@contextlib.contextmanager
def _parsing(field: str):
    """Turn a malformed value met inside the block into a :class:`ConfigError`
    naming ``field`` (``field.key`` for a missing key).  An inner
    ``ConfigError`` passes unchanged, so the innermost field is named."""
    try:
        yield
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError("missing", field=f"{field}.{exc.args[0]}") from None
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc), field=field) from None


def parse_floats(values, field: str, count: int | None = None) -> tuple[float, ...]:
    """``values`` as floats, exactly ``count`` of them when given."""
    with _parsing(field):
        out = tuple(float(v) for v in values)
    if count is not None and len(out) != count:
        raise ConfigError(f"expected {count} numbers", field=field)
    return out


def parse_range(values, field: str) -> tuple[float, float]:
    """A scan range ``lo, hi``; it must have ``lo < hi``."""
    lo, hi = parse_floats(values, field, 2)
    if not lo < hi:
        raise ConfigError(f"needs lo < hi, got {lo}, {hi}", field=field)
    return lo, hi


def parse_eps_schedule(values, field: str) -> tuple[float, ...]:
    """Imaginary offsets of the Stieltjes inversion; at least one."""
    out = parse_floats(values, field)
    if not out:
        raise ConfigError("empty eps schedule", field=field)
    return out


def parameter_grid(
    real: Sequence[float], imag: Sequence[float], field: str, *, real_major: bool
) -> list[complex]:
    """The spectral parameters ``s + i e`` for ``s`` in ``lo:hi:step`` (``real``,
    both ends included) and ``e`` in ``imag``, real part outer when
    ``real_major``.  An empty grid or a step that is not positive is a
    config error."""
    lo, hi, step = real
    if not (imag and np.all(np.isfinite([*real, *imag])) and step > 0 and lo <= hi):
        raise ConfigError(
            f"grid {lo}:{hi}:{step} needs lo <= hi, step > 0 and an imaginary part", field=field
        )
    reals = np.arange(lo, hi + 0.5 * step, step)
    if real_major:
        return [complex(s, e) for s in reals for e in imag]
    return [complex(s, e) for e in imag for s in reals]


def _as_complex(value, field: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ConfigError("expected a number or an [re, im] pair", field=field)


def _as_matrix(rows, field: str) -> np.ndarray:
    with _parsing(field):
        m = np.array([[_as_complex(v, field) for v in row] for row in rows], dtype=complex)
    if m.ndim != 2:
        raise ConfigError("expected a matrix", field=field)
    return m


def _poly_coeffs(coeff_table, n: int, field: str) -> np.ndarray:
    """Matrix polynomial coefficients ``(d + 1, n, n)`` from per-entry ascending ones."""
    coeffs = [
        [[_as_complex(c, field) for c in coeff_table[i][j]] for j in range(n)]
        for i in range(n)
    ]
    packed = np.zeros((max(1, *(len(c) for row in coeffs for c in row)), n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            packed[: len(coeffs[i][j]), i, j] = coeffs[i][j]
    return packed


def _measure_from_config(data, n: int, field: str) -> MatrixMeasure:
    if data is None:
        return MatrixMeasure.zero(n)
    with _parsing(field):
        segments = []
        for k, seg in enumerate(data.get("segments", [])):
            with _parsing(f"{field}.segments[{k}]"):
                lo, hi = parse_floats(seg["interval"], f"{field}.segments[{k}].interval", 2)
                coeffs = _poly_coeffs(seg["coeffs"], n, f"{field}.segments[{k}].coeffs")
                segments.append(Segment((lo, hi), coeffs=coeffs))
        atoms = []
        for k, atom in enumerate(data.get("atoms", [])):
            with _parsing(f"{field}.atoms[{k}]"):
                atoms.append((float(atom["x"]), _as_matrix(atom["matrix"], f"{field}.atoms[{k}].matrix")))
        return MatrixMeasure(dim=n, segments=tuple(segments), atoms=tuple(atoms), name=field)


def _piecewise(data, n: int, field: str) -> VectorFunction:
    """Vector-valued piecewise polynomial with optional explicit atom values."""
    pieces, overrides = [], {}
    with _parsing(field):
        for k, piece in enumerate(data.get("pieces", [])):
            with _parsing(f"{field}.pieces[{k}]"):
                lo, hi = parse_floats(piece["interval"], f"{field}.pieces[{k}].interval", 2)
                if len(piece["coeffs"]) != n:
                    raise ConfigError(f"expected {n} component polynomials", field=f"{field}.pieces[{k}]")
                pieces.append((lo, hi, [[_as_complex(c, field) for c in comp] for comp in piece["coeffs"]]))
        for k, item in enumerate(data.get("values_at", [])):
            with _parsing(f"{field}.values_at[{k}]"):
                overrides[float(item["x"])] = np.array([_as_complex(v, field) for v in item["value"]])
    if not pieces:
        raise ConfigError("piecewise vector needs at least one piece", field=field)
    support = (min(p[0] for p in pieces), max(p[1] for p in pieces))
    breaks = sorted({p[0] for p in pieces} | {p[1] for p in pieces} | set(overrides))

    def fn(x: float) -> np.ndarray:
        if x in overrides:
            return overrides[x]
        hit = [
            np.array([sum(c * x ** k for k, c in enumerate(comp)) for comp in coeffs])
            for lo, hi, coeffs in pieces
            if lo <= x <= hi
        ]
        return np.mean(hit, axis=0) if hit else np.zeros(n, dtype=complex)  # balanced at shared piece edges

    return VectorFunction(fn=fn, support=support, breakpoints=tuple(breaks))


def _fatou(data) -> dict:
    """The ``fatou`` section: the arguments of
    :func:`~blockweyl.fatou.fatou_convergence_scan` other than ``s``."""
    with _parsing("fatou"):
        segments = []
        for k, seg in enumerate(data.get("segments", [])):
            with _parsing(f"fatou.segments[{k}]"):
                lo, hi = parse_floats(seg["interval"], f"fatou.segments[{k}].interval", 2)
                coeffs = parse_floats(seg["coeffs"], f"fatou.segments[{k}].coeffs")
                segments.append(ScalarSegment(
                    (lo, hi), lambda t, c=coeffs: sum(ck * t ** i for i, ck in enumerate(c))
                ))
        atoms = []
        for k, atom in enumerate(data.get("atoms", [])):
            with _parsing(f"fatou.atoms[{k}]"):
                atoms.append((float(atom["x"]), float(atom["mass"])))
        # the scalar f is read as a one-component vector function
        fdata = data["f"]
        vf = _piecewise({
            "pieces": [{**p, "coeffs": [p["coeffs"]]} for p in fdata.get("pieces", [])],
            "values_at": [{**v, "value": [v["value"]]} for v in fdata.get("values_at", [])],
        }, 1, "fatou.f")

        def f(t: float) -> complex:
            return complex(vf(t)[0])

        f.breakpoints = vf.breakpoints
        return {
            "mu": ScalarMeasureModel(segments=tuple(segments), atoms=tuple(atoms)),
            "f": f,
            "s_values": parse_floats(data.get("s_values", [0.0]), "fatou.s_values"),
            "r_schedule": parse_floats(data.get("r_schedule", [1e-2, 1e-3, 1e-4, 1e-5]), "fatou.r_schedule"),
            "delta": float(data.get("delta", 0.125)),
        }


@dataclasses.dataclass
class ProblemConfig:
    """Parsed problem description; maps one-to-one onto the system objects."""

    name: str
    system: SystemSpec | None
    boundary: BoundaryConditions | None
    lambda_grid: list[complex]
    eps_schedule: tuple[float, ...]
    scan_range: tuple[float, float]
    expand_f: VectorFunction | None   # the function of the ``expand`` section
    truncation: float | None          # None: the upper end of the scan range
    fatou: dict | None                # the ``fatou`` section, see ``_fatou``

    @staticmethod
    def load(path: str | Path, tol_overrides: dict | None = None) -> "ProblemConfig":
        """Parse a config file or builtin name.  A malformed field, or the first
        violated hypothesis of the system or its boundary data, raises
        :class:`ConfigError`."""
        cfg, report = validate_config(path, tol_overrides)
        if not report.ok:
            first = report.violations[0]
            raise ConfigError(first["detail"], field=first["field"])
        return cfg


def validate_config(
    path: str | Path, tol_overrides: dict | None = None
) -> tuple[ProblemConfig, ValidationReport]:
    """The config and every violated hypothesis of its system and boundary
    data, at the config's tolerances; ``system`` is None when the system data
    violate one.  A malformed field raises :class:`ConfigError`."""
    path = resolve_config_path(path)
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict) or raw.get("schema_version") != 1:
        raise ConfigError("unsupported schema_version (expected 1)", field="schema_version")

    with _parsing("tolerances"):
        tols_data = {key: float(value) for key, value in raw.get("tolerances", {}).items()}
    tols_data.update(tol_overrides or {})
    unknown = set(tols_data) - {f.name for f in dataclasses.fields(Tolerances)}
    if unknown:
        raise ConfigError(f"unknown tolerance keys {sorted(unknown)}", field="tolerances")
    tols = dataclasses.replace(DEFAULT_TOLS, **tols_data)

    system = boundary = expand_f = truncation = None
    report = ValidationReport()
    if "J" in raw:
        J = _as_matrix(raw["J"], "J")
        n = J.shape[0]
        eps = []
        for side in ("a", "b"):
            with _parsing(f"endpoints.{side}"):
                info = raw.get("endpoints", {}).get(side, {"regular": True})
                span = None if info.get("regular", True) else info.get("span")
                eps.append(EndpointSpec(
                    regular=bool(info.get("regular", True)),
                    l2_span=_as_matrix(span, f"endpoints.{side}.span") if span else None,
                ))
        q = _measure_from_config(raw.get("q"), n, "q")
        w = _measure_from_config(raw.get("w"), n, "w")
        interval = parse_floats(raw.get("interval"), "interval", 2)
        anchors = raw.get("anchors")
        anchors = parse_floats(anchors, "anchors") if anchors else None
        if "boundary" in raw:
            with _parsing("boundary"):
                boundary = BoundaryConditions(
                    Ga=_as_matrix(raw["boundary"]["Ga"], "boundary.Ga"),
                    Gb=_as_matrix(raw["boundary"]["Gb"], "boundary.Gb"),
                )
        if "expand" in raw:
            with _parsing("expand"):
                expand_f = _piecewise(raw["expand"]["f"], n, "expand.f")
                truncation = raw["expand"].get("truncation")
                truncation = None if truncation is None else float(truncation)
        try:
            system = SystemSpec(
                J=J, q=q, w=w, interval=interval, endpoint_a=eps[0], endpoint_b=eps[1],
                anchors=anchors, tols=tols, name=raw.get("name", ""),
            )
        except StructuralError as exc:
            report = exc.report
        else:
            report.notes = list(system.notes)
        # the boundary identity is only defined for a square invertible J
        if boundary is not None and not any(v["kind"] in ("square", "invertible") for v in report.violations):
            report.violations += boundary.violations(J, tols)

    lg = raw.get("lambda_grid")
    if lg:
        with _parsing("lambda_grid"):
            real, imag = parse_floats(lg["real"], "lambda_grid.real", 3), parse_floats(lg["imag"], "lambda_grid.imag")
        grid = parameter_grid(real, imag, "lambda_grid", real_major=False)
    else:
        grid = parameter_grid((-3.0, 3.0, 0.25), (0.1, 1.0), "lambda_grid", real_major=True)
    cfg = ProblemConfig(
        name=raw.get("name", Path(str(path)).stem),
        system=system,
        boundary=boundary,
        lambda_grid=grid,
        eps_schedule=parse_eps_schedule(raw.get("eps_schedule", (1e-2, 1e-3, 1e-4)), "eps_schedule"),
        scan_range=parse_range(raw.get("range", (-3.0, 3.0)), "range"),
        expand_f=expand_f,
        truncation=truncation,
        fatou=_fatou(raw["fatou"]) if "fatou" in raw else None,
    )
    return cfg, report


def builtin_configs() -> dict[str, Path]:
    base = Path(__file__).parent / "configs"
    return {p.stem: p for p in sorted(base.glob("*.json"))}


def resolve_config_path(path: str | Path) -> Path:
    p = Path(path)
    if p.exists():
        return p
    builtin = builtin_configs().get(str(path))
    if builtin is not None:
        return builtin
    raise ConfigError(f"config not found: {path}")
