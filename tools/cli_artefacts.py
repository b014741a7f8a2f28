"""Run every CLI command on the shipped problems and fingerprint what it writes.

Usage::

    python3 tools/cli_artefacts.py OUTDIR
    python3 tools/cli_artefacts.py --compare OUT_A OUT_B

Runs ``validate``, ``analyze``, ``mfun``, ``eigen``, ``tau``, ``expand`` and
``verify`` on P1..P4 plus ``fatou-demo`` on ``fatou_demo`` (29 commands),
each in its own process against the ``src/`` of the checkout this script
lives in, and writes ``OUTDIR/manifest.json``: the sha256 of every artefact,
each command's exit code, and its standard output with ``OUTDIR`` replaced by
``<out>``.  Diff the manifests of two checkouts to see whether a change moved
any artefact.  The wall time of each command, in seconds, goes to
``OUTDIR/timings.json``, kept apart so that manifests still diff byte for byte.

It also runs the first 60 operations of each workload of ``perfbench/``
(imported, not changed) at seed 7 in one more process, with BLAS pinned to
one thread as the benchmark pins it, and writes ``OUTDIR/workloads.json``:
per workload, the sha256 of each operation's output (its arrays, numbers and
strings, or the error it raised), and under ``"<workload> set-up"`` the
sha256 of the atoms of each spectral model its set-up builds (the two of
``expansion``), so that a change to the set-up shows too.  Under
``"resolvent drives"`` go the same of 20 resolvents, each read at 5 points:
10 on P1, whose constant stretch gives its drive no row mesh to share, and
10 on P1 with a quadratic ``q`` density and a ``q`` atom, for a drive
supported on (0, 1.7), whose edge splits a stretch of the rows; the
``smooth_resolvent`` workload reaches neither case.  The numbers of each
output, complex ones as real and imaginary part, go to
``OUTDIR/workload_values.json``.  More processes, with BLAS pinned the same
way, time the Parseval-200 fixture of acceptance criterion 07 (P1's
``spectral_measure_model`` on (-200.25, 200.25) and ``parseval_check`` at
truncation 200 with f = (1, 0)) and P1's ``spectral_measure_model`` on
(-80.5, 80.5), the model of the ``expansion`` set-up, imports and config
loading left out, and the 60 ``smooth_resolvent`` operations above, their
set-up left out.  Each runs once in each of three fresh processes, since
single runs are noisy; the median times go to ``timings.json`` as
``parseval_200``, ``model_P1_80`` and ``smooth_resolvent_60``, and next to
them, as ``parseval_200_f_calls``, how many times the fixture calls its
``f``, and as ``parseval_200_integrate_calls`` how many adaptive quadratures
(``quadrature.integrate`` calls) it makes.  As ``expansion_60_f_calls`` goes
how many times the 60 fingerprinted ``expansion`` operations call their
plain ``f``, through a counter that returns its values unchanged.

``--compare`` reads the manifests and files of two such runs.  For every
artefact (and standard output) whose content differs it prints the largest
absolute difference of the numbers in it and the largest relative one,
``|a - b| / max(1, |a|, |b|)``.  The text between the numbers (JSON keys and
brackets, CSV separators and headers, words) must be identical, as must the
artefact names and exit codes; otherwise it names the mismatch and exits 1.
Where both runs wrote ``workloads.json`` it prints, per workload, the
operations (or set-up models) whose outputs differ and, where both wrote
their numbers, the largest absolute and relative difference of those
numbers.  Where both wrote ``timings.json`` it also prints each command's
wall time in both and their ratio (second over first), and each call count
that either recorded, ``-`` where one did not.  Neither affects the exit
code.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
COMMANDS = ("validate", "analyze", "mfun", "eigen", "tau", "expand", "verify")
RUNS = [(c, p) for p in ("P1", "P2", "P3", "P4") for c in COMMANDS] + [("fatou-demo", "fatou_demo")]
NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")
WORKLOAD_SEED, WORKLOAD_OPS = 7, 60
TIMED_RUNS = 3
COUNT_SUFFIX = "_calls"  # a count in timings.json, not a time
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _feed(digest, numbers: list, obj) -> None:
    """Hash the data of an operation's output: arrays, numbers and strings, and
    the contents of dataclasses, lists and tuples; other objects are skipped.
    The numbers go to ``numbers`` as well, complex ones as real and imaginary part."""
    import numpy as np

    if isinstance(obj, (np.ndarray, np.generic, int, float, complex)):
        arr = np.asarray(obj)
        digest.update(f"{arr.dtype}{arr.shape}".encode() + arr.tobytes())
        flat = np.ravel(arr)
        if np.iscomplexobj(flat):
            flat = np.column_stack([flat.real, flat.imag]).ravel()
        numbers.extend(float(x) for x in flat)
    elif isinstance(obj, str) or obj is None:
        digest.update(repr(obj).encode())
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            _feed(digest, numbers, getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _feed(digest, numbers, item)


def _digest(obj) -> tuple[str, list[float]]:
    """sha256 of the data of ``obj`` (:func:`_feed`) and its numbers."""
    digest, numbers = hashlib.sha256(), []
    _feed(digest, numbers, obj)
    return digest.hexdigest(), numbers


def workload_outputs() -> tuple[dict[str, list[str]], dict[str, list[list[float]]], dict[str, int]]:
    """sha256 of the outputs of the first operations of each benchmark workload,
    and the numbers in each output; under ``"<workload> set-up"``, the same of
    the atoms of each spectral model its set-up builds, and under
    ``"resolvent drives"`` those of :func:`resolvent_drives`.  Last, as
    ``expansion_60_f_calls``, how many times the ``expansion`` operations
    call their plain ``f``, counted by a wrapper that returns its values."""
    sys.path[:0] = [str(SRC), str(PERFBENCH)]
    import blockweyl
    from workloads import WORKLOADS

    digests, values, f_calls = {}, {}, []
    for name, make in WORKLOADS.items():
        workload = make(WORKLOAD_SEED)
        state = workload.setup()
        models = [problem.model for problem in state if getattr(problem, "model", None) is not None]
        if models:
            digests[f"{name} set-up"], values[f"{name} set-up"] = map(list, zip(*(_digest(m.atoms) for m in models)))
        specs = workload.operations(state)
        digests[name], values[name] = [], []
        for _ in range(WORKLOAD_OPS):
            spec = next(specs)
            if name == "expansion":
                *head, f = spec
                spec = (*head, dataclasses.replace(f, fn=lambda x, fn=f.fn: f_calls.append(x) or fn(x)))
            try:
                digest, numbers = _digest(workload.run(state, spec))
            except blockweyl.BlockweylError as exc:
                digest, numbers = hashlib.sha256(f"{type(exc).__name__}: {exc}".encode()).hexdigest(), []
            digests[name].append(digest)
            values[name].append(numbers)
    digests["resolvent drives"], values["resolvent drives"] = resolvent_drives()
    return digests, values, {f"expansion_{WORKLOAD_OPS}_f_calls": len(f_calls)}


def resolvent_drives() -> tuple[list[str], list[list[float]]]:
    """sha256 of the values of 20 resolvents at 5 points each, and their numbers
    (the ``"resolvent drives"`` entry of ``workloads.json``)."""
    sys.path[:0] = [str(SRC)]
    import numpy as np
    from blockweyl import Engine, MatrixMeasure, ResolventFunction, Segment, SystemSpec, VectorFunction
    from blockweyl.config import ProblemConfig

    cfg = ProblemConfig.load("P1")
    p1, bc = cfg.system, cfg.boundary
    c0, c1, c2 = np.array([[0.3, 0.1], [0.1, -0.2]]), np.array([[0.0, 0.05], [0.05, 0.1]]), 0.02 * np.eye(2)
    q = MatrixMeasure(dim=2, segments=(Segment((0.0, np.pi), lambda x: c0 + c1 * x + c2 * x * x, degree=2),),
                      atoms=((1.1, np.diag([0.5, -0.25])),))
    smooth = SystemSpec(J=p1.J, q=q, w=p1.w, interval=p1.interval, tols=p1.tols)
    xs = np.array([0.2, 0.9, 1.5, 2.1, 2.9])
    digests, values = [], []
    for sysm, support in ((p1, None), (smooth, (0.0, 1.7))):
        eng = Engine(sysm, bc)
        for k in range(10):
            lam = complex(-12.0 + 2.7 * k, 0.3 + 0.2 * k)
            f = VectorFunction(lambda x, k=k: np.array([1.0, np.cos(k * x)]), support=support)
            digest, numbers = _digest(ResolventFunction(sysm, bc, lam, f, engine=eng).many(xs))
            digests.append(digest)
            values.append(numbers)
    return digests, values


def _fresh_engine_time(build) -> float:
    """Wall time, in seconds, of ``build(cfg, engine)`` on P1 with a fresh
    engine, config loading left out."""
    from blockweyl import Engine
    from blockweyl.config import ProblemConfig

    cfg = ProblemConfig.load("P1")
    engine = Engine(cfg.system, cfg.boundary)
    start = time.perf_counter()
    build(cfg, engine)
    return time.perf_counter() - start


def parseval_200() -> dict[str, float]:
    """Wall time, in seconds, of the Parseval-200 fixture on P1, how many
    times it calls its ``f`` and how many ``quadrature.integrate`` calls it makes."""
    sys.path[:0] = [str(SRC)]
    import numpy as np
    from blockweyl import VectorFunction, parseval_check, quadrature, spectral_measure_model

    calls, integrals = [], []
    integrate = quadrature.integrate

    def counted(*args, **kwargs):
        integrals.append(None)
        return integrate(*args, **kwargs)

    def fixture(cfg, engine):
        model = spectral_measure_model(cfg.system, cfg.boundary, (-200.25, 200.25), engine=engine)
        f = VectorFunction(lambda x: calls.append(x) or np.array([1.0, 0.0]))
        parseval_check(cfg.system, cfg.boundary, model, f, truncation=200.0, engine=engine)

    quadrature.integrate = counted
    try:
        timed = _fresh_engine_time(fixture)
    finally:
        quadrature.integrate = integrate
    return {"parseval_200": timed, "parseval_200_f_calls": len(calls), "parseval_200_integrate_calls": len(integrals)}


def smooth_resolvent_60() -> dict[str, float]:
    """Wall time, in seconds, of the first operations of the ``smooth_resolvent``
    workload, those whose outputs :func:`workload_outputs` records, set-up and
    operation drawing left out."""
    sys.path[:0] = [str(SRC), str(PERFBENCH)]
    import blockweyl
    from workloads import WORKLOADS

    workload = WORKLOADS["smooth_resolvent"](WORKLOAD_SEED)
    state = workload.setup()
    specs = workload.operations(state)
    ops = [next(specs) for _ in range(WORKLOAD_OPS)]
    start = time.perf_counter()
    for op in ops:
        try:
            workload.run(state, op)
        except blockweyl.BlockweylError:
            pass
    return {"smooth_resolvent_60": time.perf_counter() - start}


def model_P1_80() -> dict[str, float]:
    """Wall time, in seconds, of P1's spectral model on (-80.5, 80.5), the
    model the ``expansion`` workload builds in its set-up."""
    sys.path[:0] = [str(SRC)]
    from blockweyl import spectral_measure_model

    return {"model_P1_80": _fresh_engine_time(lambda cfg, engine: spectral_measure_model(
        cfg.system, cfg.boundary, (-80.5, 80.5), engine=engine, eps_schedule=cfg.eps_schedule))}


def numeric_difference(a: str, b: str) -> tuple[float, float, int] | None:
    """Largest absolute and relative difference of the numbers in two texts,
    and how many numbers differ; None when the text around them differs."""
    if NUMBER.split(a) != NUMBER.split(b):
        return None
    worst_abs = worst_rel = 0.0
    moved = 0
    for x, y in zip(map(float, NUMBER.findall(a)), map(float, NUMBER.findall(b))):
        gap = abs(x - y)
        moved += gap > 0
        worst_abs = max(worst_abs, gap)
        worst_rel = max(worst_rel, gap / max(1.0, abs(x), abs(y)))
    return worst_abs, worst_rel, moved


def compare(root_a: Path, root_b: Path) -> int:
    """Print how the artefacts of two runs differ; 1 when anything but numbers does."""
    man_a, man_b = (json.loads((root / "manifest.json").read_text()) for root in (root_a, root_b))
    bad = 0
    for part in ("exit_codes", "artefacts"):
        if set(man_a[part]) != set(man_b[part]):
            print(f"{part}: keys differ: {sorted(set(man_a[part]) ^ set(man_b[part]))}")
            bad += 1
    for key in sorted(set(man_a["exit_codes"]) & set(man_b["exit_codes"])):
        if man_a["exit_codes"][key] != man_b["exit_codes"][key]:
            print(f"{key}: exit {man_a['exit_codes'][key]} != {man_b['exit_codes'][key]}")
            bad += 1
    common = sorted(set(man_a["artefacts"]) & set(man_b["artefacts"]))
    moved = [key for key in common if man_a["artefacts"][key] != man_b["artefacts"][key]]
    texts = [(f"{key} stdout", man_a["stdout"][key], man_b["stdout"][key])
             for key in sorted(set(man_a["stdout"]) & set(man_b["stdout"]))
             if man_a["stdout"][key] != man_b["stdout"][key]]
    texts += [(key, (root_a / key).read_text(), (root_b / key).read_text()) for key in moved]
    for key, a, b in texts:
        diff = numeric_difference(a, b)
        if diff is None:
            print(f"{key}: text differs")
            bad += 1
        else:
            print(f"{key}: {diff[2]} numbers moved, max abs {diff[0]:.3e}, max rel {diff[1]:.3e}")
    print(f"{len(common) - len(moved)} of {len(common)} common artefacts identical, {bad} mismatches")
    print_workloads(root_a, root_b)
    print_timings(root_a, root_b)
    return 1 if bad else 0


def print_workloads(root_a: Path, root_b: Path) -> None:
    """The benchmark operations whose outputs differ between two runs, where
    both recorded them, and the largest differences of their numbers."""
    paths = [root / "workloads.json" for root in (root_a, root_b)]
    if not all(path.exists() for path in paths):
        return
    ops_a, ops_b = (json.loads(path.read_text()) for path in paths)
    values = [root / "workload_values.json" for root in (root_a, root_b)]
    nums_a, nums_b = (json.loads(path.read_text()) if path.exists() else {} for path in values)
    for name in sorted(set(ops_a) | set(ops_b)):
        a, b = ops_a.get(name, []), ops_b.get(name, [])
        differ = [i for i in range(max(len(a), len(b))) if a[i:i + 1] != b[i:i + 1]]
        what = "models" if name.endswith(" set-up") else "operations"
        line = (f"workload {name}: {max(len(a), len(b)) - len(differ)} {what} identical, "
                f"differing: {differ or 'none'}")
        x, y = nums_a.get(name, []), nums_b.get(name, [])
        if differ and all(i < min(len(x), len(y)) for i in differ):
            pairs = [(x[i], y[i]) for i in differ]
            if all(len(p) == len(q) for p, q in pairs):
                gaps = [(abs(u - v), abs(u - v) / max(1.0, abs(u), abs(v)))
                        for p, q in pairs for u, v in zip(p, q) if u != v]
                line += (f"; max abs {max((g for g, _ in gaps), default=0.0):.3e}, "
                         f"max rel {max((r for _, r in gaps), default=0.0):.3e}")
            else:
                line += "; the differing outputs hold different counts of numbers"
        print(line)


def print_timings(root_a: Path, root_b: Path) -> None:
    """Each command's wall time in two runs and their ratio, and each call
    count in both, where both recorded it."""
    paths = [root / "timings.json" for root in (root_a, root_b)]
    if not all(path.exists() for path in paths):
        return
    time_a, time_b = (json.loads(path.read_text()) for path in paths)
    common = sorted(key for key in set(time_a) & set(time_b) if not key.endswith(COUNT_SUFFIX))
    rows = [(key, time_a[key], time_b[key]) for key in common]
    rows.append(("total", sum(time_a[key] for key in common), sum(time_b[key] for key in common)))
    for key, a, b in rows:
        print(f"{key}: {a:.2f} s -> {b:.2f} s, ratio {b / a:.3f}")
    for key in sorted(key for key in set(time_a) | set(time_b) if key.endswith(COUNT_SUFFIX)):
        a, b = (f"{times[key]:.0f}" if key in times else "-" for times in (time_a, time_b))
        print(f"{key}: {a} -> {b}")


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    manifest = {"artefacts": {}, "exit_codes": {}, "stdout": {}}
    timings = {}
    for command, config in RUNS:
        key = f"{config}/{command}"
        out = root / config / command
        out.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "blockweyl.cli", command, "--config", config, "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        timings[key] = time.perf_counter() - start
        manifest["exit_codes"][key] = proc.returncode
        manifest["stdout"][key] = proc.stdout.replace(str(out), "<out>")
        for path in sorted(out.iterdir()):
            manifest["artefacts"][f"{key}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{key}: exit {proc.returncode}, {timings[key]:.2f} s", flush=True)
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    pinned = {**env, **{var: "1" for var in THREAD_VARS}}

    def last_line(code: str) -> str:
        """The last line ``code`` prints in a fresh process importing this module."""
        proc = subprocess.run([sys.executable, "-c", f"import json, cli_artefacts; print({code})"],
                              capture_output=True, text=True, check=True,
                              cwd=Path(__file__).resolve().parent, env=pinned)
        return proc.stdout.splitlines()[-1]

    start = time.perf_counter()
    digests, values, counts = json.loads(last_line("json.dumps(cli_artefacts.workload_outputs())"))
    timings.update(counts)
    (root / "workloads.json").write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    (root / "workload_values.json").write_text(json.dumps(values, sort_keys=True) + "\n")
    models = sum(len(v) for k, v in digests.items() if k.endswith(" set-up"))
    print(f"{sum(map(len, digests.values())) - models} workload outputs, {models} set-up models, "
          f"{time.perf_counter() - start:.2f} s", flush=True)
    for fixture in ("parseval_200", "model_P1_80", "smooth_resolvent_60"):
        runs = [json.loads(last_line(f"json.dumps(cli_artefacts.{fixture}())")) for _ in range(TIMED_RUNS)]
        for key in runs[0]:
            timings[key] = statistics.median(run[key] for run in runs)
            print(f"{key}: median {timings[key]:.2f} of {', '.join(f'{run[key]:.2f}' for run in runs)}", flush=True)
    (root / "timings.json").write_text(json.dumps(timings, indent=2, sort_keys=True) + "\n")
    print(f"{len(manifest['artefacts'])} artefacts, {len(RUNS)} commands -> {root / 'manifest.json'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
