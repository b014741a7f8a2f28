import json
import subprocess
import sys
from pathlib import Path

import pytest

from blockweyl import cli
from blockweyl.config import ProblemConfig
from blockweyl.errors import ConfigError, TheoryViolationError
from blockweyl.verify import verify_battery

VERIFY_CRITERIA = [
    "q_hermitian", "w_nonnegative", "boundary_selfadjoint", "jump_conjugation",
    "lambda_conjugation_symmetry", "wronskian_identities", "norm_zero_annihilation",
    "source_structure_identity", "constraint_condition", "symmetry_witness",
    "weyl_symmetry", "herglotz_min_eig", "weyl_mean_identity", "projector_absorption",
    "range_inclusion", "measure_additivity",
]


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "blockweyl.cli", *args],
        capture_output=True,
        text=True,
    )


def write_config(tmp_path, mutate=None, name="custom.json", base="P1"):
    base = json.loads(Path(cli.resolve_config_path(base)).read_text())
    if mutate:
        mutate(base)
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return path


def test_validate_ok(tmp_path):
    rc = cli.run("validate", "P1", tmp_path)
    assert rc == 0
    report = json.loads((tmp_path / "validate.json").read_text())
    assert report["ok"] and report["violations"] == []


def test_validate_rejects_nonhermitian_q(tmp_path):
    cfg = write_config(
        tmp_path,
        lambda c: c.__setitem__(
            "q",
            {"segments": [], "atoms": [{"x": 1.0, "matrix": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}]},
        ),
    )
    rc = cli.run("validate", cfg, tmp_path)
    assert rc == 1
    report = json.loads((tmp_path / "validate.json").read_text())
    fields = {v["field"] for v in report["violations"]}
    assert "q" in fields


def _set(*path_and_value):
    """A config mutation: set the entry at ``path`` (keys and indices) to ``value``."""
    *path, key, value = path_and_value

    def mutate(c):
        for k in path:
            c = c[k]
        c[key] = value
    return mutate


def _delete(*path):
    def mutate(c):
        for k in path[:-1]:
            c = c[k]
        del c[path[-1]]
    return mutate


@pytest.mark.parametrize("command", ["validate", "analyze"])
@pytest.mark.parametrize(
    "mutate, flags, field",
    [
        (_delete("boundary", "Gb"), [], "boundary.Gb"),
        (_delete("expand", "f", "pieces", 0, "interval"), [], "expand.f.pieces[0].interval"),
        (_set("w", "atoms", [{"x": 1.0}]), [], "w.atoms[0].matrix"),
        (_set("lambda_grid", "real", [-3.0, 3.0, 0.0]), [], "lambda_grid"),
        (_set("range", [0.0]), [], "range"),
        (_set("eps_schedule", ["x"]), [], "eps_schedule"),
        (None, ["--tol-override", "quad_rel=abc"], "--tol-override quad_rel"),
        (None, ["--lambda-grid", "1:0:0.5@0.1"], "--lambda-grid"),
        (None, ["--lambda-grid", "0:1:0@0.1"], "--lambda-grid"),
        (_set("range", [2.0, -2.0]), [], "range"),
        (_set("eps_schedule", []), [], "eps_schedule"),
        (None, ["--range=2,-2"], "--range"),
    ],
    ids=["boundary-Gb", "expand-interval", "w-atom-matrix", "grid-step-0", "range-1",
         "eps-schedule-x", "tol-override", "flag-grid-empty", "flag-grid-step-0",
         "range-reversed", "eps-schedule-empty", "flag-range-reversed"],
)
def test_malformed_input_exits_4(tmp_path, capsys, command, mutate, flags, field):
    cfg = write_config(tmp_path, mutate)
    rc = cli.main([command, "--config", str(cfg), "--out", str(tmp_path), *flags])
    assert rc == 4
    assert f"config error: {field}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutate, fields",
    [
        (_set("q", "atoms", [{"x": 99.0, "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}]), {"q"}),
        (_set("interval", [1.0, 0.0]), {"interval"}),
        (
            lambda c: c.update(
                tolerances={"structural": 1e-14},
                q={"atoms": [{"x": 1.0, "matrix": [[[1, 0], [1e-12, 0]], [[0, 0], [0, 0]]]}]},
            ),
            {"q"},
        ),
        (_set("J", [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]), {"J"}),
        (
            # invertible but not skew-hermitian J: the boundary is still checked
            lambda c: c.update(
                J=[[[1, 0], [-1, 0]], [[1, 0], [0, 0]]],
                boundary={"Ga": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]], "Gb": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]},
            ),
            {"J", "boundary"},
        ),
    ],
    ids=["atom-outside", "empty-interval", "config-tolerance", "singular-J", "J-and-boundary"],
)
def test_validate_reports_what_the_loader_rejects(tmp_path, mutate, fields):
    cfg = write_config(tmp_path, mutate)
    assert cli.run("validate", cfg, tmp_path) == 1
    report = json.loads((tmp_path / "validate.json").read_text())
    assert not report["ok"]
    assert fields <= {v["field"] for v in report["violations"]}
    assert cli.main(["analyze", "--config", str(cfg), "--out", str(tmp_path)]) == 4


def test_config_errors_exit_4(tmp_path):
    proc = run_cli("analyze", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path))
    assert proc.returncode == 4
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_cli("analyze", "--config", str(bad), "--out", str(tmp_path))
    assert proc.returncode == 4
    # schema version is enforced
    cfg = write_config(tmp_path, lambda c: c.__setitem__("schema_version", 99))
    proc = run_cli("analyze", "--config", str(cfg), "--out", str(tmp_path))
    assert proc.returncode == 4


def test_analyze_p4_reports_dimensions(tmp_path):
    rc = cli.run("analyze", "P4", tmp_path)
    assert rc == 0
    data = json.loads((tmp_path / "analysis.json").read_text())
    assert data["N"] == 1
    assert data["partition"] == [0.0]
    assert data["dim_B"] == 1
    assert data["dim_ranP"] == 3
    assert data["tilde_lambda"] == []
    assert data["isolated_points_hypothesis"] is True


def test_eigen_csv_p1(tmp_path):
    rc = cli.run("eigen", "P1", tmp_path)
    assert rc == 0
    lines = (tmp_path / "eigen.csv").read_text().strip().splitlines()
    assert lines[0] == "lambda,multiplicity,weight_trace"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 11
    values = [float(r[0]) for r in rows]
    assert max(abs(v - round(v)) for v in values) < 1e-8
    assert values == sorted(values)


def test_mfun_csv_schema(tmp_path):
    rc = cli.run(
        "mfun", "P1", tmp_path,
        lambda_grid=[0.5 + 0.1j, 0.5 + 1.0j, -1.25 + 0.1j],
    )
    assert rc == 0
    lines = (tmp_path / "mfun.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["re_lambda", "im_lambda"]
    assert header[-3:] == ["symmetry_residual", "min_imag_eig", "witness_norm"]
    assert len(lines) == 4
    row = [float(v) for v in lines[1].split(",")]
    assert abs(row[0] - 0.5) < 1e-15 and abs(row[1] - 0.1) < 1e-15
    assert row[-3] < 1e-8 and row[-1] < 1e-9


def test_tau_json_p3(tmp_path):
    rc = cli.run("tau", "P3", tmp_path)
    assert rc == 0
    data = json.loads((tmp_path / "tau.json").read_text())
    assert data["verified"] is True
    assert len(data["atoms"]) == 1
    atom = data["atoms"][0]
    assert abs(atom["s"] - 2.0) < 1e-9
    assert abs(atom["trace"] - 0.8) < 1e-8


def test_expand_outputs(tmp_path):
    rc = cli.run("expand", "P4", tmp_path)
    assert rc == 0
    summary = json.loads((tmp_path / "expand_summary.json").read_text())
    assert summary["num_atoms"] == 1
    # f = (1, 0): its projection onto the single eigenfunction reproduces it
    # up to the norm-zero component invisible to the weight
    assert summary["transform_norm_sq"] == pytest.approx(summary["projection_norm_sq"], abs=1e-8)
    lines = (tmp_path / "expand.csv").read_text().strip().splitlines()
    assert len(lines) == 2


def test_expand_computes_the_transform_once(tmp_path, monkeypatch):
    from blockweyl import transform

    calls = []
    original = transform.forward_transform

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(transform, "forward_transform", counted)
    monkeypatch.setattr(cli, "forward_transform", counted)
    assert cli.run("expand", "P4", tmp_path) == 0
    assert len(calls) == 1


def test_verify_passes_and_is_byte_identical(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert cli.run("verify", "P2", out1) == 0
    assert cli.run("verify", "P2", out2) == 0
    assert (out1 / "verify.json").read_bytes() == (out2 / "verify.json").read_bytes()
    data = json.loads((out1 / "verify.json").read_text())
    assert data["all_passed"] is True
    assert [c["name"] for c in data["criteria"]] == VERIFY_CRITERIA


@pytest.mark.parametrize("name", ["P1", "P2", "P3", "P4"])
def test_verify_battery_in_process(name):
    cfg = ProblemConfig.load(name)
    rows = verify_battery(cfg.system, cfg.boundary)
    assert [r["name"] for r in rows] == VERIFY_CRITERIA
    assert all(r["passed"] for r in rows), [r for r in rows if not r["passed"]]


def test_verify_battery_raises_on_bad_boundary_rows(tmp_path):
    path = write_config(tmp_path, _set("boundary", {
        "Ga": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        "Gb": [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
    }), base="P3")
    cfg = ProblemConfig.load(path)
    with pytest.raises(TheoryViolationError):
        verify_battery(cfg.system, cfg.boundary)


def test_verify_detects_bad_boundary_rows(tmp_path):
    # classical two-row pinned ends on the string are not induced by
    # square-integrable pairs: theory-violation exit code
    cfg_path = Path(cli.resolve_config_path("P3"))
    cfg = json.loads(cfg_path.read_text())
    cfg["boundary"] = {
        "Ga": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        "Gb": [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
    }
    bad = tmp_path / "bad_p3.json"
    bad.write_text(json.dumps(cfg))
    proc = run_cli("verify", "--config", str(bad), "--out", str(tmp_path))
    assert proc.returncode == 3


def test_accuracy_error_exit_2(tmp_path):
    proc = run_cli(
        "analyze", "--config", "P1", "--out", str(tmp_path),
        "--tol-override", "quad_rel=1e-300",
        "--tol-override", "quad_abs=1e-300",
    )
    assert proc.returncode == 2


def test_singular_transfer_exits_1(tmp_path):
    # a condition cap of 1 refuses P2's point interaction: SingularTransferError
    proc = run_cli("mfun", "--config", "P2", "--out", str(tmp_path), "--tol-override", "cond_cap=1.0")
    assert proc.returncode == 1
    assert "jump matrix at x=1.5707963267948966 is numerically singular" in proc.stderr


def test_degenerate_point_exits_1(tmp_path):
    # far from the support, with no atom, the Poisson denominator underflows
    # at r = 1e-300: DegeneratePointError
    def mutate(cfg):
        cfg["fatou"].update(atoms=[], s_values=[1e6], r_schedule=[1e-300])

    path = write_config(tmp_path, mutate, base="fatou_demo")
    proc = run_cli("fatou-demo", "--config", str(path), "--out", str(tmp_path))
    assert proc.returncode == 1
    assert "Poisson denominator underflow" in proc.stderr


def test_cli_entry_point_flags(tmp_path):
    proc = run_cli(
        "eigen", "--config", "P1", "--out", str(tmp_path), "--range=-1.5,1.5"
    )
    assert proc.returncode == 0
    lines = (tmp_path / "eigen.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 3  # eigenvalues -1, 0, 1
    # the flag's grid is real-major (the config's is imaginary-major)
    proc = run_cli("mfun", "--config", "P1", "--out", str(tmp_path), "--lambda-grid", "0:0.5:0.5@0.1,1")
    assert proc.returncode == 0
    lines = (tmp_path / "mfun.csv").read_text().strip().splitlines()[1:]
    assert [tuple(float(v) for v in line.split(",")[:2]) for line in lines] == [
        (0.0, 0.1), (0.0, 1.0), (0.5, 0.1), (0.5, 1.0),
    ]


def test_fatou_demo_csv(tmp_path):
    rc = cli.run("fatou-demo", "fatou_demo", tmp_path)
    assert rc == 0
    lines = (tmp_path / "fatou.csv").read_text().strip().splitlines()
    assert lines[0] == "s,r,re_quotient,im_quotient,tail_bound"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    # s = 0: the atom dominates, the quotient tends to the overridden value 5
    tail = [r for r in rows if r[0] == 0.0][-1]
    assert abs(tail[2] - 5.0) < 1e-3
    # s = 0.3: Lebesgue point of the step, value 3
    tail3 = [r for r in rows if r[0] == 0.3][-1]
    assert abs(tail3[2] - 3.0) < 1e-4


def test_fatou_demo_requires_section(tmp_path):
    proc = run_cli("fatou-demo", "--config", "P1", "--out", str(tmp_path))
    assert proc.returncode == 4


def test_builtin_config_listing():
    names = set(cli.builtin_configs())
    assert {"P1", "P2", "P3", "P4", "fatou_demo"} <= names
    with pytest.raises(ConfigError):
        cli.resolve_config_path("NOPE")
