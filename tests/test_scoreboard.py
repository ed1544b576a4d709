"""The acceptance scoreboard tells a deselected criterion from one that failed."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("select,passed", [(["-m", "slow"], set()), (["-k", "criterion_3"], {3})])
def test_deselected_criteria_print_not_run(select, passed):
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-q", *select, "tests/test_acceptance.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    rows = dict(re.findall(r"^criterion (\d+): (PASS|FAIL|NOT RUN) ", proc.stdout, re.M))
    assert sorted(map(int, rows)) == list(range(1, 10)), proc.stdout
    assert {int(n) for n, status in rows.items() if status == "PASS"} == passed
    assert {int(n) for n, status in rows.items() if status == "NOT RUN"} == set(range(1, 10)) - passed
