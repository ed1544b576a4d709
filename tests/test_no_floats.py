"""The library computes exactly: no float ever enters `src/unitals`.

Parses every module and rejects a float or complex literal, a call to
`float(...)`, and any use of `math` beyond its integer functions.
"""

import ast
from pathlib import Path

import pytest

import unitals

INTEGER_MATH = {"prod", "gcd", "isqrt", "comb", "lcm"}
MODULES = sorted(Path(unitals.__file__).parent.glob("*.py"))


def float_uses(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{where}: literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append(f"{where}: float(...)")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "math":
            if node.attr not in INTEGER_MATH:
                found.append(f"{where}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"{where}: from math import {a.name}" for a in node.names if a.name not in INTEGER_MATH]
    return found


def test_every_module_is_scanned():
    assert {"finite_field.py", "varieties.py", "padic_invariants.py"} <= {m.name for m in MODULES}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.name)
def test_no_floats_in_src(module):
    assert float_uses(module.read_text()) == []


@pytest.mark.parametrize(
    "source",
    ["_X = 0.5", "y = float(3)", "import math\nr = math.sqrt(4)", "from math import log2", "z = 1j"],
)
def test_guard_catches_floats(source):
    assert float_uses(source)


def test_guard_allows_integer_math():
    assert float_uses("import math\nn = math.prod([2, 3]) + math.isqrt(10) + 7 // 2") == []
