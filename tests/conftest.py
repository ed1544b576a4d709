"""Shared fixtures plus the acceptance-criteria scoreboard.

Acceptance tests record their verdicts through the `acceptance` fixture; the
terminal-summary hook then prints one PASS/FAIL line per criterion after the
run, so the scoreboard is visible even though pytest captures stdout.  A
criterion whose test the run deselected (`-m slow`, `-k`) prints NOT RUN; one
whose test ran and died before its verdict prints FAIL.
"""

import re

import pytest

_SCOREBOARD: dict[int, tuple[str, str, str]] = {}
_DESELECTED: set[int] = set()  # criteria whose test was deselected


def register(num: int, title: str) -> None:
    _SCOREBOARD.setdefault(num, (title, "FAIL", "did not run to completion"))


@pytest.fixture
def acceptance():
    """Record a criterion verdict and assert it."""

    def verdict(num: int, title: str, ok: bool, detail: str = ""):
        _SCOREBOARD[num] = (title, "PASS" if ok else "FAIL", detail)
        assert ok, f"criterion {num} ({title}) failed: {detail}"

    return verdict


def pytest_deselected(items):
    for item in items:
        m = re.match(r"test_criterion_(\d+)_", item.name)
        if m:
            _DESELECTED.add(int(m.group(1)))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _SCOREBOARD:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_SCOREBOARD):
        title, status, detail = _SCOREBOARD[num]
        if num in _DESELECTED:
            status, detail = "NOT RUN", "deselected"
        line = f"criterion {num}: {status}  {title}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)
