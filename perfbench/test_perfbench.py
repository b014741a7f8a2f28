"""Self-checks of the benchmark itself.

    python3 -m pytest perfbench -q

Runs each workload briefly in child processes, traced and untraced, and
checks that the traced counts are consistent, that a missing wrap target
leaves its metrics absent, and that the benchmark refuses to run outside a
checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import PER_LAYER  # noqa: E402


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_are_consistent(workload, tmp_path):
    deadline = time.monotonic() + run.TIME_LIMIT_S
    base = run.run_child(deadline, *run.workload_args(workload, 7, ops=6))
    traced = run.run_child(deadline, *run.workload_args(workload, 7, ops=6, trace=True,
                                                        spans=tmp_path / "s.npz"))
    checks = run.self_checks(base, traced)
    assert all(checks.values()), checks
    assert base["failed"] == traced["failed"] == 0
    assert set(traced["layers"]) == set(PER_LAYER) - {"trace.overhead_ratio"}
    assert (tmp_path / "s.npz").is_file()


def test_missing_target_is_reported_absent():
    code = (
        "import sys; sys.path[:0] = ['src', 'perfbench']\n"
        "import blockweyl.quadrature as q, blockweyl.propagation as p\n"
        "del q._panel; del p.SolutionRow.balanced_many\n"
        "from tracer import Tracer, install\n"
        "import json; print(json.dumps(sorted(install(Tracer()).metrics())))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=run.pinned_env())
    names = set(json.loads(out.stdout.strip().splitlines()[-1]))
    assert "quadrature.integrate.panels" not in names
    assert "propagation.row_eval_many.calls" not in names
    assert "quadrature.integrate.nodes" in names


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectrum", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
