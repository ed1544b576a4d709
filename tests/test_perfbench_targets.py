"""The benchmark calls `unitals` functions by name; they must all exist.

`perfbench/spans.py` lists its targets as (span, module, attribute) triples
and looks each up with getattr, so deleting or renaming one of those
functions would crash the traced run.  `perfbench/worker.py` calls
`unitals.<name>` (and imports from the package) directly, so a deleted name
would crash every run.  Both files are read, never changed.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import unitals

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
WORKER = PERFBENCH / "worker.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves_to_a_callable():
    targets = _load_spans().TARGETS
    assert targets
    for span, module_name, attr in targets:
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        assert callable(obj), f"{span}: {module_name}.{attr} is not a callable"


def _package_names(path):
    """Every dotted name a file reaches from `unitals`: `unitals.a.b`, and `x.b` after `from unitals import x`."""
    tree = ast.parse(path.read_text())
    roots = {"unitals": "unitals"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "unitals":
            roots.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})
    names = set(roots.values()) - {"unitals"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain = [node.attr]
            value = node.value
            while isinstance(value, ast.Attribute):
                chain.append(value.attr)
                value = value.value
            if isinstance(value, ast.Name) and value.id in roots:
                names.add(".".join([roots[value.id], *reversed(chain)]))
    return names


def _submodule(module, part):
    try:
        return importlib.import_module(f"{module.__name__}.{part}")
    except ImportError:
        return None


def test_every_worker_name_resolves_on_the_package():
    names = _package_names(WORKER)
    assert {"unitals.bm_unital", "unitals.cli.main"} <= names
    for name in sorted(names):
        obj = unitals
        for part in name.split(".")[1:]:
            obj = getattr(obj, part, None) or _submodule(obj, part)
            assert obj is not None, f"perfbench/worker.py uses {name}, which does not resolve"
