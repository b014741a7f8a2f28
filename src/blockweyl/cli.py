"""Command-line interface: argument parsing, one library call, artefact writing.

Each command loads a config (:mod:`blockweyl.config`) and writes
deterministic artefacts into the output directory:

==========  ===============================================================
validate    every violated hypothesis, at the config's tolerances -> validate.json
analyze     exceptional-set table, partition, transform dimensions -> analysis.json
mfun        Weyl-matrix samples over a grid -> mfun.csv
eigen       real eigenvalue scan -> eigen.csv
tau         spectral-measure model -> tau.json
expand      expansion coefficients and reconstruction summary -> expand.csv/.json
verify      the battery of :mod:`blockweyl.verify` -> verify.json
fatou-demo  Poisson-quotient scan -> fatou.csv
==========  ===============================================================

Exit codes: 0 ok, 1 validation failure, 2 numerical non-convergence,
3 theory violation, 4 configuration error (a malformed field, or a violated
hypothesis outside ``validate``).
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
from pathlib import Path

import numpy as np

from .assembly import norm_zero_space, transform_range_dim
from .config import (
    ProblemConfig, builtin_configs, parameter_grid, parse_eps_schedule, parse_floats, parse_range,
    resolve_config_path, validate_config,
)
from .engine import Engine
from .errors import AccuracyError, BlockweylError, ConfigError, TheoryViolationError
from .fatou import fatou_convergence_scan
from .propagation import ArrayForm, VectorFunction
from .spectral import eigen_scan, spectral_measure_model
from .system import BoundaryConditions, SystemSpec
from .transform import forward_transform, inverse_transform, parseval_check, w_norm
from .verify import verify_battery
from .weyl import m_function, nevanlinna_diagnostics

__all__ = ["ProblemConfig", "builtin_configs", "main", "resolve_config_path", "run"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ACCURACY = 2
EXIT_THEORY = 3
EXIT_CONFIG = 4


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


def _cmd_validate(config_path: str | Path, tol_overrides: dict | None, out: Path) -> int:
    cfg, report = validate_config(config_path, tol_overrides)
    if report.ok:
        _require_system(cfg)  # a config without J has nothing to validate
    _write_json(out / "validate.json", {
        "name": cfg.name, "violations": report.violations, "notes": report.notes, "ok": report.ok,
    })
    print(f"validate: {'ok' if report.ok else 'FAILED'} ({len(report.violations)} violations) -> {out/'validate.json'}")
    return EXIT_OK if report.ok else EXIT_VALIDATION


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
    grid = cfg.lambda_grid
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
    f = cfg.expand_f
    if f is None:
        raise ConfigError("config has no 'expand' section", field="expand")
    eng = Engine(sysm, bc)
    trunc = cfg.scan_range[1] if cfg.truncation is None else cfg.truncation
    model = spectral_measure_model(
        sysm, bc, (-trunc - 0.5, trunc + 0.5), engine=eng, eps_schedule=cfg.eps_schedule
    )
    fhat = forward_transform(sysm, bc, model, f, engine=eng)
    synth = inverse_transform(sysm, model, fhat, engine=eng, bc=bc)
    recon_err = w_norm(
        sysm,
        VectorFunction(
            fn=ArrayForm(lambda xs: synth.many(xs) - f.many(xs)),
            breakpoints=tuple(sysm.atom_positions()) + tuple(f.breakpoints),
        ),
    )
    pars = parseval_check(sysm, bc, model, f, truncation=trunc, engine=eng, fhat=fhat)
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
    demo = cfg.fatou
    if demo is None:
        raise ConfigError("config has no 'fatou' section", field="fatou")
    rows = []
    for s in demo["s_values"]:
        rep = fatou_convergence_scan(demo["mu"], demo["f"], s, demo["r_schedule"], delta=demo["delta"])
        for r, q, bound in rep.rows:
            rows.append([float(s), float(r), float(q.real), float(q.imag), float(bound)])
        print(
            f"fatou-demo s={s}: limit={rep.limit:.8f} monotone={rep.monotone_trend}"
            + (f" caveats={rep.caveats}" if rep.caveats else "")
        )
    _write_csv(out / "fatou.csv", ["s", "r", "re_quotient", "im_quotient", "tail_bound"], rows)
    print(f"fatou-demo -> {out/'fatou.csv'}")
    return EXIT_OK


def _cmd_verify(cfg: ProblemConfig, out: Path) -> int:
    rows = verify_battery(_require_system(cfg), _require_boundary(cfg))
    ok = all(r["passed"] for r in rows)
    _write_json(out / "verify.json", {"name": cfg.name, "all_passed": ok, "criteria": rows})
    for r in rows:
        print(f"  [{'PASS' if r['passed'] else 'FAIL'}] {r['name']}: {r['value']:.3e} (limit {r['limit']:.1e})")
    print(f"verify: {'all passed' if ok else 'FAILURES'} -> {out/'verify.json'}")
    return EXIT_OK if ok else EXIT_THEORY


# ---------------------------------------------------------------------------
# entry point


def run(command: str, config_path: str | Path, out_dir: str | Path, *, tol_overrides: dict | None = None,
        eps_schedule=None, scan_range=None, lambda_grid=None) -> int:
    """Programmatic entry point used by the CLI and the tests; the keyword
    arguments that are set replace the config's values."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if command == "validate":
        return _cmd_validate(config_path, tol_overrides, out)
    cfg = ProblemConfig.load(config_path, tol_overrides)
    if eps_schedule:
        cfg.eps_schedule = tuple(eps_schedule)
    if scan_range:
        cfg.scan_range = tuple(scan_range)
    if lambda_grid is not None:
        cfg.lambda_grid = list(lambda_grid)
    return COMMANDS[command](cfg, out)


COMMANDS = {
    "validate": _cmd_validate,
    "analyze": _cmd_analyze,
    "mfun": _cmd_mfun,
    "eigen": _cmd_eigen,
    "tau": _cmd_tau,
    "expand": _cmd_expand,
    "verify": _cmd_verify,
    "fatou-demo": _cmd_fatou_demo,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="blockweyl",
        description="Spectral data for first-order systems with measure coefficients.",
    )
    parser.add_argument("command", choices=list(COMMANDS))
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
            overrides[key] = parse_floats([value], f"--tol-override {key}")[0]
        kwargs = {}
        if args.eps_schedule:
            kwargs["eps_schedule"] = parse_eps_schedule(args.eps_schedule.split(","), "--eps-schedule")
        if args.scan_range:
            kwargs["scan_range"] = parse_range(args.scan_range.split(","), "--range")
        if args.lambda_grid:  # "lo:hi:step@eps1,eps2", real part outer
            real, _, eps = args.lambda_grid.partition("@")
            kwargs["lambda_grid"] = parameter_grid(
                parse_floats(real.split(":"), "--lambda-grid", 3),
                parse_floats(eps.split(","), "--lambda-grid"), "--lambda-grid", real_major=True,
            )
        return run(args.command, args.config, args.out, tol_overrides=overrides, **kwargs)
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
