"""Smoke runs of the measurement scripts, so that a change of the API they
drive fails here rather than when a baseline is next measured."""

import os
import subprocess
import sys
from pathlib import Path

import portarb

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_PARENT = Path(portarb.__file__).resolve().parents[1]


def test_compile_scale_runs_at_64_leaves():
    # the script compiles, builds every port's arbiter, replays arrivals
    # through `arrive` and `verdict` and drains `iter_run`
    path = os.pathsep.join(filter(None, (str(PACKAGE_PARENT), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    child = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compile_scale.py"), "--leaves", "64", "--repeat", "1"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    header, *rows = child.stdout.splitlines()
    assert header.startswith("leaves | given | added | ")
    assert len(rows) == 1 and rows[0].startswith("64 | ")
    assert len(rows[0].split(" | ")) == len(header.split(" | "))
