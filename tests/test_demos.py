"""Smoke test: every demo script runs to completion and prints its tour."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import unitals

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    src = str(Path(unitals.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
