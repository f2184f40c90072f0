"""Runs of the scripts: the measurement script, so that a change of the API
it drives fails here rather than when a baseline is next measured, and the
oracle script, whose output must still be the golden files."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import portarb

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_PARENT = Path(portarb.__file__).resolve().parents[1]


def test_compile_scale_runs_at_64_leaves():
    # the script compiles, builds the run's fan-out, replays emissions
    # through the run's table, view and `verdict` steps and drains `iter_run`
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


def test_derive_oracles_reproduces_the_golden_files(tmp_path):
    # the copy's goldens are derived anew in the copy, so the repository's
    # are never written; the rule files are the script's to check, not write
    fixtures = Path("src") / "portarb" / "fixtures"
    shutil.copytree(ROOT / "scripts", tmp_path / "scripts",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / fixtures, tmp_path / fixtures)
    goldens = sorted((ROOT / fixtures).glob("*/expected_trace.jsonl"))
    assert len(goldens) == 4
    for golden in goldens:
        (tmp_path / golden.relative_to(ROOT)).unlink()
    child = subprocess.run(
        [sys.executable, str(tmp_path / "scripts" / "derive_oracles.py")],
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}, cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    for golden in goldens + sorted((ROOT / fixtures).glob("*/expected_rules.txt")):
        assert (tmp_path / golden.relative_to(ROOT)).read_bytes() == golden.read_bytes(), golden
