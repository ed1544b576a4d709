"""The traced benchmark run wraps `unitals` functions by name; they must all exist.

`perfbench/spans.py` lists its targets as (span, module, attribute) triples
and looks each up with getattr, so deleting or renaming one of those
functions would crash the traced run.  The file is loaded, never changed.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
