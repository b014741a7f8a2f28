"""blockweyl benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.  The
workload runs in a fresh child process with BLAS/OpenMP pinned to one thread.

``--trace 0`` reports the end-to-end metrics of one untraced run.
``--trace 1`` makes the untraced run, then replays its first 100 operations
in a traced child and reports the per-layer metrics of that fixed amount of
work, the tracing overhead and the result of the trace self-checks.  Spans
go to ``perfbench/out/spans-<workload>-seed<seed>.npz``.

The last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("spectrum", "expansion", "smooth_resolvent")  # workloads.py: the parent never imports blockweyl
END_TO_END = {
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}
SETUP_REPS = 3       # set-up is timed this many times per run; the median is reported
IMPORT_PROBES = 2    # extra fresh processes that only time the import; the median is reported
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"   # every run compiles the package alike
    env.pop("PYTHONPATH", None)            # import the checkout's src/, nothing else
    return env


def run_child(deadline: float, *args: str) -> dict:
    """Run ``child.py`` with ``args`` in a fresh process and return its parsed result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("no time left for another child run")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                              stdout=subprocess.PIPE, text=True, env=pinned_env(),
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {' '.join(args)} exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(args)} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"child {' '.join(args)} printed no result")
    return json.loads(lines[-1])


def workload_args(workload: str, seed: int, *, seconds: float = 0.0, ops: int = 0,
                  trace: bool = False, setup_reps: int = 1, spans: Path | None = None):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--ops", str(ops), "--setup-reps", str(setup_reps)]
    if trace:
        args.append("--trace")
    if spans is not None:
        args += ["--spans", str(spans)]
    return args


def self_checks(base: dict, traced: dict) -> dict[str, bool]:
    """Count consistency of a traced run against itself and its untraced twin."""
    layers = traced["layers"]
    checks = {
        "traced ops == untraced ops": traced["ops"] == base["head_ops"],
        "traced fail_ratio == untraced fail_ratio": traced["failed"] == base["head_failed"],
        "every op has spans": traced["traced_ops"] == traced["ops"],
    }
    if "engine.row.calls" in layers and "engine.row.builds" in layers:
        checks["engine.row.calls == hits + builds"] = (
            layers["engine.row.calls"] == traced["row_hits"] + layers["engine.row.builds"])
    if "quadrature.integrate.nodes" in layers and "quadrature.integrate.panels" in layers:
        checks["quadrature nodes == 15 x panels"] = (
            layers["quadrature.integrate.nodes"] == 15 * layers["quadrature.integrate.panels"])
    return checks


def describe(res: dict) -> str:
    env = res["env"]
    return (
        f"perfbench {res['workload']} seed={res['seed']}: {res['ops']} ops in "
        f"{res['wall_s']:.2f} s, fail_ratio={res['failed'] / res['ops']:.4g}, "
        f"p90 over {res['ops']} samples ({res['beyond_p90']} beyond), "
        f"unnormalized p50 {res['raw_p50_ms']:.3f} ms; "
        f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"nproc {os.cpu_count()} (usable {len(os.sched_getaffinity(0))})"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (Path.cwd() / "src" / "blockweyl" / "__init__.py").is_file():
        print("perfbench: run from the root of a blockweyl checkout (src/blockweyl missing)",
              file=sys.stderr)
        return 2

    try:
        if not args.trace:
            res = run_child(deadline, *workload_args(args.workload, args.seed,
                                                     seconds=args.seconds, setup_reps=SETUP_REPS))
            print(describe(res))
            imports = [res["import_s"]] + [run_child(deadline, "--import-only")["import_s"]
                                           for _ in range(IMPORT_PROBES)]
            values = dict(
                res,
                setup_s=statistics.median(imports) + statistics.median(res["setup_reps_s"]),
                pass_ratio=1.0 - res["failed"] / res["ops"],
            )
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
            correct = res["failed"] == 0
            attempted, failed = res["ops"], res["failed"]
        else:
            from tracer import PER_LAYER

            base = run_child(deadline, *workload_args(args.workload, args.seed,
                                                      seconds=args.seconds))
            print(describe(base))
            spans = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.npz"
            traced = run_child(deadline, *workload_args(args.workload, args.seed,
                                                        ops=base["head_ops"], trace=True,
                                                        spans=spans))
            layers = dict(traced["layers"])
            layers["trace.overhead_ratio"] = traced["ops_per_s"] / base["head_ops_per_s"]
            checks = self_checks(base, traced)
            for name, ok in checks.items():
                print(f"self-check {'ok  ' if ok else 'FAIL'} {name}")
            print(f"{traced.get('spans', 0)} spans written to {spans}")
            metrics = {k: {"value": layers[k], "unit": PER_LAYER[k]}
                       for k in PER_LAYER if k in layers}
            correct = base["failed"] == 0 and traced["failed"] == 0 and all(checks.values())
            attempted, failed = traced["ops"], traced["failed"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
