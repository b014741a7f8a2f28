"""Command-line interface: config ingestion, command dispatch, report emission.

Problems are described by JSON configs (complex numbers as ``[re, im]``
pairs, densities as per-entry polynomial coefficient arrays in ascending
degree).  Commands write deterministic artifacts into the output directory:

========  =================================================================
validate  measure/system/boundary checks -> validate.json
analyze   exceptional-set table, partition, transform dimensions -> analysis.json
mfun      Weyl-matrix samples over a grid -> mfun.csv
eigen     real eigenvalue scan -> eigen.csv
tau       spectral-measure model -> tau.json
expand    expansion coefficients and reconstruction summary -> expand.csv/.json
verify    full invariant battery -> verify.json
fatou-demo  Poisson-quotient scan -> fatou.csv
========  =================================================================

Exit codes: 0 ok, 1 validation failure, 2 numerical non-convergence,
3 theory violation, 4 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys as _sys
from pathlib import Path

import numpy as np

from . import fatou as fatou_mod
from .assembly import assemble_blocks, norm_zero_space, transform_range_dim
from .engine import Engine
from .errors import (
    AccuracyError,
    BlockweylError,
    ConfigError,
    StructuralError,
    TheoryViolationError,
)
from .measures import DEFAULT_TOLS, IntervalSpec, MatrixMeasure, Segment, Tolerances, integrate_bv, validate_measure
from .propagation import VectorFunction, row_integrand, wronskian_defect
from .spectral import eigen_scan, spectral_measure_model
from .system import BoundaryConditions, EndpointSpec, SystemSpec, jump_matrices
from .transform import forward_transform, inverse_transform, parseval_check, w_norm
from .weyl import m_function, nevanlinna_diagnostics, symmetry_witness

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ACCURACY = 2
EXIT_THEORY = 3
EXIT_CONFIG = 4


# ---------------------------------------------------------------------------
# config parsing


def _as_complex(value, field: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ConfigError("expected a number or an [re, im] pair", field=field)


def _as_matrix(rows, field: str) -> np.ndarray:
    try:
        return np.array(
            [[_as_complex(v, field) for v in row] for row in rows], dtype=complex
        )
    except (TypeError, ConfigError) as exc:
        raise ConfigError(f"bad matrix: {exc}", field=field) from None


def _poly_evaluator(coeff_table, n: int, field: str):
    """Matrix polynomial evaluator from per-entry ascending coefficients."""
    coeffs = [
        [[_as_complex(c, field) for c in coeff_table[i][j]] for j in range(n)]
        for i in range(n)
    ]
    deg = max((len(c) for row in coeffs for c in row), default=1) - 1
    packed = np.zeros((deg + 1, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            for k, c in enumerate(coeffs[i][j]):
                packed[k, i, j] = c

    def evaluate(x: float) -> np.ndarray:
        out = np.zeros((n, n), dtype=complex)
        p = 1.0
        for k in range(deg + 1):
            out = out + packed[k] * p
            p *= x
        return out

    return evaluate, deg


def _measure_from_config(data, n: int, field: str) -> MatrixMeasure:
    if data is None:
        return MatrixMeasure.zero(n)
    segments = []
    for k, seg in enumerate(data.get("segments", [])):
        try:
            lo, hi = float(seg["interval"][0]), float(seg["interval"][1])
        except (KeyError, TypeError, ValueError):
            raise ConfigError("segment needs an [lo, hi] interval", field=f"{field}.segments[{k}]")
        ev, deg = _poly_evaluator(seg["coeffs"], n, f"{field}.segments[{k}].coeffs")
        segments.append(Segment((lo, hi), ev, degree=deg))
    atoms = []
    for k, atom in enumerate(data.get("atoms", [])):
        try:
            x = float(atom["x"])
        except (KeyError, TypeError, ValueError):
            raise ConfigError("atom needs a location x", field=f"{field}.atoms[{k}]")
        atoms.append((x, _as_matrix(atom["matrix"], f"{field}.atoms[{k}].matrix")))
    try:
        return MatrixMeasure(dim=n, segments=tuple(segments), atoms=tuple(atoms), name=field)
    except StructuralError as exc:
        raise ConfigError(str(exc), field=field) from None


def _piecewise_vector(data, n: int, field: str) -> VectorFunction:
    """Vector-valued piecewise polynomial with optional explicit atom values."""
    pieces = []
    for k, piece in enumerate(data.get("pieces", [])):
        lo, hi = float(piece["interval"][0]), float(piece["interval"][1])
        comps = piece["coeffs"]
        if len(comps) != n:
            raise ConfigError(f"expected {n} component polynomials", field=f"{field}.pieces[{k}]")
        coeffs = [[_as_complex(c, field) for c in comp] for comp in comps]
        pieces.append((lo, hi, coeffs))
    overrides = {
        float(item["x"]): np.array([_as_complex(v, field) for v in item["value"]])
        for item in data.get("values_at", [])
    }
    if not pieces:
        raise ConfigError("piecewise vector needs at least one piece", field=field)
    support = (min(p[0] for p in pieces), max(p[1] for p in pieces))
    breaks = sorted({p[0] for p in pieces} | {p[1] for p in pieces} | set(overrides))

    def fn(x: float) -> np.ndarray:
        if x in overrides:
            return overrides[x]
        vals = []
        hit = []
        for lo, hi, coeffs in pieces:
            if lo <= x <= hi:
                hit.append(np.array([
                    sum(c * x ** k for k, c in enumerate(comp)) for comp in coeffs
                ]))
        if not hit:
            return np.zeros(n, dtype=complex)
        return np.mean(hit, axis=0)  # balanced at shared piece edges

    return VectorFunction(fn=fn, support=support, breakpoints=tuple(breaks))


@dataclasses.dataclass
class ProblemConfig:
    """Parsed problem description; maps one-to-one onto the system objects."""

    name: str
    system: SystemSpec | None
    boundary: BoundaryConditions | None
    lambda_grid: list[complex]
    eps_schedule: tuple[float, ...]
    scan_range: tuple[float, float]
    expand: dict | None
    fatou: dict | None
    raw: dict

    @staticmethod
    def load(
        path: str | Path,
        tol_overrides: dict | None = None,
        lenient: bool = False,
    ) -> "ProblemConfig":
        """Parse a config file.  With ``lenient=True`` value-level defects in
        the system data do not abort parsing (the validate command reports
        them instead)."""
        path = resolve_config_path(path)
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
        if raw.get("schema_version") != 1:
            raise ConfigError("unsupported schema_version (expected 1)", field="schema_version")

        tols_data = dict(raw.get("tolerances", {}))
        tols_data.update(tol_overrides or {})
        unknown = set(tols_data) - {f.name for f in dataclasses.fields(Tolerances)}
        if unknown:
            raise ConfigError(f"unknown tolerance keys {sorted(unknown)}", field="tolerances")
        tols = dataclasses.replace(DEFAULT_TOLS, **tols_data)

        system = boundary = None
        if "J" in raw:
            J = _as_matrix(raw["J"], "J")
            n = J.shape[0]
            try:
                a, b = float(raw["interval"][0]), float(raw["interval"][1])
            except (KeyError, TypeError, ValueError):
                raise ConfigError("interval must be [a, b]", field="interval")
            q = _measure_from_config(raw.get("q"), n, "q")
            w = _measure_from_config(raw.get("w"), n, "w")
            endpoints = raw.get("endpoints", {})
            eps = []
            for side in ("a", "b"):
                info = endpoints.get(side, {"regular": True})
                if info.get("regular", True):
                    eps.append(EndpointSpec(regular=True))
                else:
                    span = info.get("span")
                    eps.append(
                        EndpointSpec(
                            regular=False,
                            l2_span=_as_matrix(span, f"endpoints.{side}.span") if span else None,
                        )
                    )
            anchors = raw.get("anchors")
            try:
                system = SystemSpec(
                    J=J, q=q, w=w, interval=(a, b),
                    endpoint_a=eps[0], endpoint_b=eps[1],
                    anchors=tuple(float(x) for x in anchors) if anchors else None,
                    tols=tols, name=raw.get("name", ""),
                )
            except StructuralError as exc:
                if not lenient:
                    raise ConfigError(str(exc), field="system") from None
                system = None
            if "boundary" in raw:
                boundary = BoundaryConditions(
                    Ga=_as_matrix(raw["boundary"]["Ga"], "boundary.Ga"),
                    Gb=_as_matrix(raw["boundary"]["Gb"], "boundary.Gb"),
                )
                if system is not None:
                    try:
                        boundary.validate(system)
                    except StructuralError as exc:
                        if not lenient:
                            raise ConfigError(str(exc), field="boundary") from None

        grid = []
        lg = raw.get("lambda_grid")
        if lg:
            lo, hi, step = (float(v) for v in lg["real"])
            reals = np.arange(lo, hi + 0.5 * step, step)
            for e in lg["imag"]:
                grid.extend(complex(s, float(e)) for s in reals)
        eps_schedule = tuple(float(e) for e in raw.get("eps_schedule", (1e-2, 1e-3, 1e-4)))
        scan = raw.get("range", (-3.0, 3.0))
        return ProblemConfig(
            name=raw.get("name", Path(str(path)).stem),
            system=system,
            boundary=boundary,
            lambda_grid=grid,
            eps_schedule=eps_schedule,
            scan_range=(float(scan[0]), float(scan[1])),
            expand=raw.get("expand"),
            fatou=raw.get("fatou"),
            raw=raw,
        )


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


# ---------------------------------------------------------------------------
# serialization helpers


def _c2pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _matrix_pairs(m: np.ndarray) -> list:
    return [[_c2pair(v) for v in row] for row in np.atleast_2d(m)]


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# commands


def _cmd_validate(cfg: ProblemConfig, out: Path) -> int:
    report = {"name": cfg.name, "violations": [], "notes": []}
    raw = cfg.raw
    try:
        J = _as_matrix(raw["J"], "J")
    except (KeyError, ConfigError) as exc:
        raise ConfigError(f"missing or bad J: {exc}", field="J")
    n = J.shape[0]
    tol = DEFAULT_TOLS.structural * max(1.0, float(np.linalg.norm(J)))
    if np.max(np.abs(J + J.conj().T)) > tol:
        report["violations"].append({"field": "J", "kind": "skew-hermitian", "magnitude": float(np.max(np.abs(J + J.conj().T)))})
    if abs(np.linalg.det(J)) <= tol:
        report["violations"].append({"field": "J", "kind": "invertible", "magnitude": float(abs(np.linalg.det(J)))})
    for label, kind in (("q", "hermitian"), ("w", "nonnegative")):
        meas = _measure_from_config(raw.get(label), n, label)
        rep = validate_measure(meas, kind)
        for v in rep.violations:
            report["violations"].append({"field": label, **v})
        report["notes"].extend(f"{label}: {note}" for note in rep.notes)
    if "boundary" in raw:
        bc = BoundaryConditions(
            Ga=_as_matrix(raw["boundary"]["Ga"], "boundary.Ga"),
            Gb=_as_matrix(raw["boundary"]["Gb"], "boundary.Gb"),
        )
        defect = bc.selfadjointness_defect(J)
        if defect > tol:
            report["violations"].append({"field": "boundary", "kind": "self-adjointness", "magnitude": float(defect)})
    report["ok"] = not report["violations"]
    _write_json(out / "validate.json", report)
    print(f"validate: {'ok' if report['ok'] else 'FAILED'} ({len(report['violations'])} violations) -> {out/'validate.json'}")
    return EXIT_OK if report["ok"] else EXIT_VALIDATION


def _cmd_analyze(cfg: ProblemConfig, out: Path) -> int:
    sysm = _require_system(cfg)
    eng = Engine(sysm, cfg.boundary)
    sing = eng.sing
    dim_b, equal = transform_range_dim(sysm, engine=eng)
    basis, proj = norm_zero_space(sysm, engine=eng)
    result = {
        "name": cfg.name,
        "N": len(sing.partition),
        "partition": [float(x) for x in sing.partition],
        "tilde_lambda": [_c2pair(z) for z in sing.tilde_lambda],
        "lambda_table": [
            {"x": rec.x, "kind": rec.kind, "roots": [_c2pair(r) for r in rec.roots]}
            for rec in sing.records
        ],
        "anchors": [float(x) for x in eng.anchors],
        "dim_B": int(dim_b),
        "dim_ranP": int(round(float(np.real(np.trace(proj))))),
        "dim_B_equals_ranP": bool(equal),
        "isolated_points_hypothesis": bool(sing.isolated_points_hypothesis),
        "notes": ["only finitely many coefficient atoms are representable"],
    }
    _write_json(out / "analysis.json", result)
    print(f"analyze: N={result['N']} dim_B={result['dim_B']} dim_ranP={result['dim_ranP']} -> {out/'analysis.json'}")
    return EXIT_OK


def _require_system(cfg: ProblemConfig) -> SystemSpec:
    if cfg.system is None:
        raise ConfigError("this command needs a full system config")
    return cfg.system


def _require_boundary(cfg: ProblemConfig) -> BoundaryConditions:
    if cfg.boundary is None:
        raise ConfigError("this command needs boundary data", field="boundary")
    return cfg.boundary


def _cmd_mfun(cfg: ProblemConfig, out: Path) -> int:
    sysm, bc = _require_system(cfg), _require_boundary(cfg)
    eng = Engine(sysm, bc)
    grid = cfg.lambda_grid or [complex(s, e) for s in np.arange(-3.0, 3.25, 0.25) for e in (0.1, 1.0)]
    width = eng.coeff_dim
    header = ["re_lambda", "im_lambda"]
    for i in range(width):
        for j in range(width):
            header += [f"re_m{i}{j}", f"im_m{i}{j}"]
    header += ["symmetry_residual", "min_imag_eig", "witness_norm"]
    rows = []
    report = nevanlinna_diagnostics(sysm, bc, grid, engine=eng, analyticity_probe=False)
    for lam, diag in zip(grid, report.rows):
        sample = m_function(sysm, bc, lam, engine=eng)
        row = [float(lam.real), float(lam.imag)]
        for i in range(width):
            for j in range(width):
                row += [float(sample.m[i, j].real), float(sample.m[i, j].imag)]
        row += [diag.symmetry_residual, diag.min_imag_eig, diag.witness_norm]
        rows.append(row)
    _write_csv(out / "mfun.csv", header, rows)
    print(
        f"mfun: {len(rows)} samples, max symmetry residual {report.max_symmetry:.3e}, "
        f"min Im eig {report.min_imag_eig:.3e} -> {out/'mfun.csv'}"
    )
    return EXIT_OK


def _cmd_eigen(cfg: ProblemConfig, out: Path) -> int:
    sysm, bc = _require_system(cfg), _require_boundary(cfg)
    lo, hi = cfg.scan_range
    points = eigen_scan(sysm, bc, lo, hi, engine=Engine(sysm, bc))
    rows = [
        [float(p.value), p.multiplicity, float(np.real(np.trace(p.weight)))]
        for p in points
    ]
    _write_csv(out / "eigen.csv", ["lambda", "multiplicity", "weight_trace"], rows)
    print(f"eigen: {len(rows)} eigenvalues in [{lo}, {hi}] -> {out/'eigen.csv'}")
    return EXIT_OK


def _cmd_tau(cfg: ProblemConfig, out: Path) -> int:
    sysm, bc = _require_system(cfg), _require_boundary(cfg)
    eng = Engine(sysm, bc)
    model = spectral_measure_model(sysm, bc, cfg.scan_range, engine=eng, eps_schedule=cfg.eps_schedule)
    result = {
        "name": cfg.name,
        "range": list(cfg.scan_range),
        "convention": "left-continuous distribution function; intervals [c, d)",
        "atoms": [
            {
                "s": float(a.s),
                "multiplicity": int(a.multiplicity),
                "trace": float(np.real(np.trace(a.weight))),
                "weight": _matrix_pairs(a.weight),
                "inversion_gap": None if a.inversion_gap is None else float(a.inversion_gap),
            }
            for a in model.atoms
        ],
        "verified": bool(model.verified),
        "notes": model.notes,
        "const_a": _matrix_pairs(model.const_a) if model.const_a is not None else None,
        "const_b": _matrix_pairs(model.const_b) if model.const_b is not None else None,
    }
    _write_json(out / "tau.json", result)
    print(f"tau: {len(model.atoms)} atoms in {cfg.scan_range} -> {out/'tau.json'}")
    return EXIT_OK


def _cmd_expand(cfg: ProblemConfig, out: Path) -> int:
    sysm, bc = _require_system(cfg), _require_boundary(cfg)
    if not cfg.expand:
        raise ConfigError("config has no 'expand' section", field="expand")
    eng = Engine(sysm, bc)
    f = _piecewise_vector(cfg.expand["f"], sysm.dim, "expand.f")
    trunc = float(cfg.expand.get("truncation", cfg.scan_range[1]))
    model = spectral_measure_model(
        sysm, bc, (-trunc - 0.5, trunc + 0.5), engine=eng, eps_schedule=cfg.eps_schedule
    )
    fhat = forward_transform(sysm, bc, model, f, engine=eng)
    synth = inverse_transform(sysm, model, fhat, engine=eng, bc=bc)
    recon_err = w_norm(
        sysm,
        VectorFunction(
            fn=lambda x: synth(x) - f(x),
            breakpoints=tuple(sysm.atom_positions()) + tuple(f.breakpoints),
        ),
    )
    pars = parseval_check(sysm, bc, model, f, truncation=trunc, engine=eng)
    width = eng.coeff_dim
    header = ["s", "multiplicity"] + [f"{p}_c{i}" for i in range(width) for p in ("re", "im")]
    rows = []
    for atom, v in zip(model.atoms, fhat.values):
        row = [float(atom.s), atom.multiplicity]
        for i in range(width):
            row += [float(v[i].real), float(v[i].imag)]
        rows.append(row)
    _write_csv(out / "expand.csv", header, rows)
    summary = {
        "name": cfg.name,
        "truncation": trunc,
        "num_atoms": len(model.atoms),
        "transform_norm_sq": pars["transform_sq"],
        "projection_norm_sq": pars["projection_sq"],
        "tail_estimate": pars["tail_estimate"],
        "input_norm_sq": w_norm(sysm, f) ** 2,
        "reconstruction_error": float(recon_err),
    }
    _write_json(out / "expand_summary.json", summary)
    print(
        f"expand: {len(rows)} coefficients, reconstruction error {recon_err:.3e} "
        f"-> {out/'expand.csv'}, {out/'expand_summary.json'}"
    )
    return EXIT_OK


def _cmd_fatou_demo(cfg: ProblemConfig, out: Path) -> int:
    if not cfg.fatou:
        raise ConfigError("config has no 'fatou' section", field="fatou")
    data = cfg.fatou
    segments = []
    for k, seg in enumerate(data.get("segments", [])):
        lo, hi = float(seg["interval"][0]), float(seg["interval"][1])
        coeffs = [float(c) for c in seg["coeffs"]]
        segments.append(
            fatou_mod.ScalarSegment(
                (lo, hi), lambda t, c=tuple(coeffs): sum(ck * t ** i for i, ck in enumerate(c))
            )
        )
    atoms = tuple((float(a["x"]), float(a["mass"])) for a in data.get("atoms", []))
    mu = fatou_mod.ScalarMeasureModel(segments=tuple(segments), atoms=atoms)

    fdata = data["f"]
    vf = _piecewise_vector(
        {
            "pieces": [{**p, "coeffs": [p["coeffs"]]} for p in fdata.get("pieces", [])],
            "values_at": [{**i, "value": [i["value"]]} for i in fdata.get("values_at", [])],
        },
        1, "fatou.f",
    )

    def f(t: float) -> complex:
        return complex(vf(t)[0])

    f.breakpoints = vf.breakpoints
    rows = []
    for s in data.get("s_values", [0.0]):
        rep = fatou_mod.fatou_convergence_scan(
            mu, f, float(s), data.get("r_schedule", [1e-2, 1e-3, 1e-4, 1e-5]),
            delta=float(data.get("delta", 0.125)),
        )
        for r, q, bound in rep.rows:
            rows.append([float(s), float(r), float(q.real), float(q.imag), float(bound)])
        print(
            f"fatou-demo s={s}: limit={rep.limit:.8f} monotone={rep.monotone_trend}"
            + (f" caveats={rep.caveats}" if rep.caveats else "")
        )
    _write_csv(out / "fatou.csv", ["s", "r", "re_quotient", "im_quotient", "tail_bound"], rows)
    print(f"fatou-demo -> {out/'fatou.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify battery


def _verify_rows(cfg: ProblemConfig) -> list[dict]:
    sysm, bc = _require_system(cfg), _require_boundary(cfg)
    eng = Engine(sysm, bc)
    rng = np.random.default_rng(0)
    rows: list[dict] = []

    def add(name: str, value: float, limit: float):
        rows.append(
            {"name": name, "value": float(value), "limit": float(limit), "passed": bool(value <= limit)}
        )

    add("q_hermitian", max([v["magnitude"] for v in validate_measure(sysm.q, "hermitian").violations], default=0.0), sysm.tols.structural)
    add("w_nonnegative", max([v["magnitude"] for v in validate_measure(sysm.w, "nonnegative").violations], default=0.0), sysm.tols.structural)
    add("boundary_selfadjoint", bc.selfadjointness_defect(sysm.J), sysm.tols.structural)

    # jump-matrix conjugation identity at sampled parameters and atoms
    worst = 0.0
    for x in sysm.atom_positions():
        for lam in (0.0, 1.0, 1j, 2 + 1j):
            bm, bp = jump_matrices(sysm, x, lam)
            worst = max(worst, float(np.max(np.abs(bm + jump_matrices(sysm, x, np.conj(lam))[1].conj().T))))
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
            worst = max(worst, wronskian_defect(sysm, j, lam, 15, sing=sing, anchor=eng.anchors[j]))
    add("wronskian_identities", worst, 1e-9)

    asm = assemble_blocks(sysm, bc, 1j, engine=eng)
    comp = np.eye(eng.coeff_dim) - asm.projector
    worst = max(
        float(np.max(np.abs(asm.jump_defect @ comp))) if asm.jump_defect.size else 0.0,
        float(np.max(np.abs(asm.q_minus @ comp))),
        float(np.max(np.abs(asm.q_plus @ comp))),
        float(np.max(np.abs((asm.script_a_minus + asm.script_a_plus) @ comp))),
    )
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
        a = assemble_blocks(sysm, bc, lam, engine=eng)
        s = np.linalg.svd(a.constraints, compute_uv=False)
        worst_rank = max(worst_rank, float(s[0] / s[width - 1]) if s[width - 1] > 0 else np.inf)
    add("constraint_condition", worst_rank, 1e8)

    _, wnorm, _ = symmetry_witness(sysm, bc, 1j, engine=eng)
    add("symmetry_witness", wnorm, 1e-9)

    grid = [complex(s, e) for s in (-2.0, -0.5, 0.75, 2.5) for e in (0.1, 1.0)]
    rep = nevanlinna_diagnostics(sysm, bc, grid, engine=eng, analyticity_probe=False)
    add("weyl_symmetry", rep.max_symmetry, 1e-8)
    add("herglotz_min_eig", -rep.min_imag_eig, 1e-8)

    sample = m_function(sysm, bc, 1j, engine=eng)
    add("weyl_mean_identity", float(np.max(np.abs(sample.m - 0.5 * (sample.m_left + sample.m_right)))), 1e-13)
    add("projector_absorption", float(np.max(np.abs(asm.projector @ sample.m @ asm.projector - sample.m))), 1e-10)

    F = asm.constraints
    u, s, vh = np.linalg.svd(F, full_matrices=False)
    keep = s > sysm.tols.pinv_rel * s[0]
    proj_range = (u[:, keep] * 1.0) @ u[:, keep].conj().T
    resid = (np.eye(F.shape[0]) - proj_range) @ asm.source_mean @ eng.J_blocks_inv @ asm.projector
    add("range_inclusion", float(np.max(np.abs(resid))), 1e-8)

    # transform additivity on a random piecewise vector
    g = VectorFunction(fn=lambda x, v=rng.standard_normal(sysm.dim): v.astype(complex))
    a0, b0 = sysm.interval
    mid = 0.5 * (a0 + b0) + 0.1 * (b0 - a0) * 0.37
    row_g = row_integrand(eng.row(1j), g)
    full = integrate_bv(row_g, sysm.w, IntervalSpec(a0, b0), breakpoints=sysm.atom_positions(), tols=sysm.tols)
    left = integrate_bv(row_g, sysm.w, IntervalSpec(a0, mid, include_upper=True), breakpoints=sysm.atom_positions(), tols=sysm.tols)
    right = integrate_bv(row_g, sysm.w, IntervalSpec(mid, b0, include_lower=False), breakpoints=sysm.atom_positions(), tols=sysm.tols)
    add("measure_additivity", float(np.max(np.abs(full - left - right))), 1e-9)
    return rows


def _cmd_verify(cfg: ProblemConfig, out: Path) -> int:
    rows = _verify_rows(cfg)
    ok = all(r["passed"] for r in rows)
    _write_json(out / "verify.json", {"name": cfg.name, "all_passed": ok, "criteria": rows})
    for r in rows:
        print(f"  [{'PASS' if r['passed'] else 'FAIL'}] {r['name']}: {r['value']:.3e} (limit {r['limit']:.1e})")
    print(f"verify: {'all passed' if ok else 'FAILURES'} -> {out/'verify.json'}")
    return EXIT_OK if ok else EXIT_THEORY


# ---------------------------------------------------------------------------
# entry point


def run(command: str, config_path: str | Path, out_dir: str | Path, **kwargs) -> int:
    """Programmatic entry point used by the CLI and the tests."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    overrides = kwargs.get("tol_overrides")
    cfg = ProblemConfig.load(
        config_path,
        tol_overrides=overrides,
        lenient=command in ("validate", "fatou-demo"),
    )
    if kwargs.get("eps_schedule"):
        cfg.eps_schedule = tuple(kwargs["eps_schedule"])
    if kwargs.get("scan_range"):
        cfg.scan_range = tuple(kwargs["scan_range"])
    if kwargs.get("lambda_grid") is not None:
        cfg.lambda_grid = list(kwargs["lambda_grid"])
    dispatch = {
        "validate": _cmd_validate,
        "analyze": _cmd_analyze,
        "mfun": _cmd_mfun,
        "eigen": _cmd_eigen,
        "tau": _cmd_tau,
        "expand": _cmd_expand,
        "verify": _cmd_verify,
        "fatou-demo": _cmd_fatou_demo,
    }
    if command not in dispatch:
        raise ConfigError(f"unknown command {command!r}")
    return dispatch[command](cfg, out)


def _parse_lambda_grid(text: str) -> list[complex]:
    # "lo:hi:step@eps1,eps2"
    try:
        real_part, eps_part = text.split("@")
        lo, hi, step = (float(v) for v in real_part.split(":"))
        eps = [float(v) for v in eps_part.split(",")]
    except ValueError:
        raise ConfigError("lambda grid must look like 'lo:hi:step@eps1,eps2'")
    reals = np.arange(lo, hi + 0.5 * step, step)
    return [complex(s, e) for s in reals for e in eps]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="blockweyl",
        description="Spectral data for first-order systems with measure coefficients.",
    )
    parser.add_argument("command", choices=[
        "validate", "analyze", "mfun", "eigen", "tau", "expand", "verify", "fatou-demo",
    ])
    parser.add_argument("--config", required=True, help="config path or builtin name (P1..P4)")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--tol-override", action="append", default=[], metavar="KEY=VALUE")
    parser.add_argument("--lambda-grid", default=None, help="'lo:hi:step@eps1,eps2'")
    parser.add_argument("--eps-schedule", default=None, help="comma-separated offsets")
    parser.add_argument("--range", dest="scan_range", default=None, help="'lo,hi' scan range")
    args = parser.parse_args(argv)

    try:
        overrides = {}
        for item in args.tol_override:
            key, _, value = item.partition("=")
            if not value:
                raise ConfigError(f"bad --tol-override {item!r}")
            overrides[key] = float(value)
        kwargs = {"tol_overrides": overrides}
        if args.eps_schedule:
            kwargs["eps_schedule"] = [float(v) for v in args.eps_schedule.split(",")]
        if args.scan_range:
            lo, hi = (float(v) for v in args.scan_range.split(","))
            kwargs["scan_range"] = (lo, hi)
        if args.lambda_grid:
            kwargs["lambda_grid"] = _parse_lambda_grid(args.lambda_grid)
        return run(args.command, args.config, args.out, **kwargs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except AccuracyError as exc:
        print(f"numerical non-convergence: {exc}", file=_sys.stderr)
        return EXIT_ACCURACY
    except TheoryViolationError as exc:
        print(f"theory violation: {exc}", file=_sys.stderr)
        return EXIT_THEORY
    except BlockweylError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
