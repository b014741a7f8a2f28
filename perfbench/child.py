"""Run one workload in this (fresh) process and print its raw result as JSON.

Started by ``run.py`` from the root of a checkout, with BLAS and OpenMP
pinned to one thread.  The timed phase is a closed loop on one thread: each
operation starts when the previous one and its gate are done.  Only the
operation itself is timed; its gate runs outside the timed section.  Every
timed section is normalized to reference host speed (see ``hostspeed.py``).

    python3 perfbench/child.py --workload spectrum --seed 1 --seconds 20 \\
        [--ops N] [--trace] [--setup-reps 3] [--spans FILE]
    python3 perfbench/child.py --import-only

Without ``--ops`` the loop runs until the operations have taken ``--seconds``
seconds of wall time and at least ``MIN_OPS`` operations are done; with
``--ops`` it runs exactly that many.  ``--import-only`` times the package
import and exits.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import hostspeed

MIN_OPS = 100          # so that at least 10 samples lie beyond the 90th percentile
WALL_GUARD_S = 120.0   # stop early rather than overrun the caller's time limit


def timed_import() -> float:
    """Normalized seconds to import the package from the checkout's ``src/``."""
    sys.path.insert(0, str(Path.cwd() / "src"))
    before = hostspeed.kernel_seconds()
    t = time.perf_counter()
    import blockweyl.cli  # noqa: F401  (ProblemConfig is part of the public surface)
    raw = time.perf_counter() - t
    return raw * hostspeed.scale(before, hostspeed.kernel_seconds())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--ops", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-reps", type=int, default=1)
    ap.add_argument("--spans", type=Path)
    ap.add_argument("--import-only", action="store_true")
    args = ap.parse_args(argv)
    started = time.perf_counter()
    hostspeed.kernel_seconds()  # warm up the kernel before the first measurement

    import_s = timed_import()
    if args.import_only:
        print(json.dumps({"import_s": import_s}))
        return 0

    import scipy

    import blockweyl
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = install(Tracer())
        tracer.enabled = True

    setup_times = []
    for _ in range(args.setup_reps):
        state = None  # release the previous repetition before building the next
        before = hostspeed.kernel_seconds()
        t = time.perf_counter()
        state = workload.setup()
        raw = time.perf_counter() - t
        setup_times.append(raw * hostspeed.scale(before, hostspeed.kernel_seconds()))
    if tracer is not None:
        tracer.enabled = False

    latencies, raw_latencies, failures = [], [], []
    peak_rss_kb = None  # peak over set-up and the first MIN_OPS operations: fixed work
    wall = 0.0
    specs = workload.operations(state)
    while True:
        done = len(latencies)
        if args.ops:
            if done >= args.ops:
                break
        elif wall >= args.seconds and done >= MIN_OPS:
            break
        if time.perf_counter() - started > WALL_GUARD_S:
            break
        spec = next(specs)
        before = hostspeed.kernel_seconds()
        if tracer is not None:
            tracer.op = done
            tracer.enabled = True
        t = time.perf_counter()
        try:
            out = workload.run(state, spec)
            ok = True
        except blockweyl.BlockweylError as exc:
            print(f"operation {done} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            ok = False
        raw = time.perf_counter() - t
        if tracer is not None:
            tracer.enabled = False
        latencies.append(raw * hostspeed.scale(before, hostspeed.kernel_seconds()))
        raw_latencies.append(raw)
        wall += raw
        if ok and not workload.check(state, spec, out):
            print(f"operation {done} missed its gate: {spec[:2]}", file=sys.stderr)
            ok = False
        failures.append(not ok)
        if len(latencies) == MIN_OPS:
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    lat_ms = np.array(latencies) * 1e3
    p90 = float(np.percentile(lat_ms, 90))
    head = latencies[:MIN_OPS]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": len(latencies),
        "failed": sum(failures),
        # the first MIN_OPS operations, which a traced run replays
        "head_ops": len(head),
        "head_failed": sum(failures[:MIN_OPS]),
        "head_ops_per_s": len(head) / float(np.sum(head)),
        "wall_s": wall,
        "op_p50_ms": float(np.percentile(lat_ms, 50)),
        "op_p90_ms": p90,
        "beyond_p90": int(np.sum(lat_ms > p90)),
        "ops_per_s": len(latencies) / float(np.sum(latencies)),
        "raw_p50_ms": float(np.percentile(raw_latencies, 50)) * 1e3,
        "import_s": import_s,
        "setup_reps_s": setup_times,
        "peak_rss_mb": (peak_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) / 1024.0,
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["row_hits"] = tracer.total("engine.row", "hits")
        result["traced_ops"] = len(tracer.op_ids())
        if args.spans is not None:
            tracer.write_spans(args.spans)
            result["spans"] = len([s for s in tracer.spans if s is not None])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
