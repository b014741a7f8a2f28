"""Run every CLI command on the shipped problems and fingerprint what it writes.

Usage::

    python3 tools/cli_artefacts.py OUTDIR

Runs ``validate``, ``analyze``, ``mfun``, ``eigen``, ``tau``, ``expand`` and
``verify`` on P1..P4 plus ``fatou-demo`` on ``fatou_demo`` (29 commands),
each in its own process against the ``src/`` of the checkout this script
lives in, and writes ``OUTDIR/manifest.json``: the sha256 of every artefact,
each command's exit code, and its standard output with ``OUTDIR`` replaced by
``<out>``.  Diff the manifests of two checkouts to see whether a change moved
any artefact.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
COMMANDS = ("validate", "analyze", "mfun", "eigen", "tau", "expand", "verify")
RUNS = [(c, p) for p in ("P1", "P2", "P3", "P4") for c in COMMANDS] + [("fatou-demo", "fatou_demo")]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    manifest = {"artefacts": {}, "exit_codes": {}, "stdout": {}}
    for command, config in RUNS:
        key = f"{config}/{command}"
        out = root / config / command
        out.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run(
            [sys.executable, "-m", "blockweyl.cli", command, "--config", config, "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        manifest["exit_codes"][key] = proc.returncode
        manifest["stdout"][key] = proc.stdout.replace(str(out), "<out>")
        for path in sorted(out.iterdir()):
            manifest["artefacts"][f"{key}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{key}: exit {proc.returncode}", flush=True)
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"{len(manifest['artefacts'])} artefacts, {len(RUNS)} commands -> {root / 'manifest.json'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
