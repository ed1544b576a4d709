"""Every demo script runs to completion and prints exactly its pinned tour.

The digests are the sha256 of each demo's stdout; the output is the same
under any PYTHONHASHSEED, so a changed digest means a changed answer.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import unitals

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "01_fields_and_planes": "de8aeb18178646bba3eb19e96c7ab56ce09ae753978c5eda0771b4a153fbfbb6",
    "02_unitals": "a7443e3a7a4789b841e1299d9424ef6289a3520737c28437bb9708f68bdf1642",
    "03_invariants_and_snf": "4fb3bff908c08ed7a1f67f047378ffd39f376ed32f034085294a0f40ef900b58",
    "04_censuses": "e6220002fdd66d8d94b282102478022e2e0fbd8090041353774afbfb30cc7322",
    "05_teichmuller": "8824df23d036b34fb6d7e16ad77cc4608f760002fc008868735bac71b9736dca",
}


def test_all_five_demos_found():
    assert len(DEMOS) == 5
    assert sorted(demo.stem for demo in DEMOS) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    src = str(Path(unitals.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.stem]
