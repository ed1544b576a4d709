"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the `unitals` layers from outside, in
the worker process only; nothing under `src/` changes.  Each wrapped call
records a span (name, start, end, parent).  Spans stay in memory and are
summarised when the run ends: per span name, the number of calls and the
self time, which is the span's duration minus the time covered by its direct
child spans.

Calls made per element (FieldElem operators, `mat_vec`, `point_index`) are
deliberately not wrapped; their cost shows up as their caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

# (span name, module, attribute).  A dotted attribute names a method.  Every
# binding of the same function object in any `unitals` module is replaced,
# so calls made through `from .x import y` names are traced too.
TARGETS = (
    ("finite_field.field_for_q", "unitals.finite_field", "field_for_q"),
    ("linalg.mat_det", "unitals.linalg", "mat_det"),
    ("linalg.nullspace_mod_p", "unitals.linalg", "nullspace_mod_p"),
    ("proj_geom.enum_points", "unitals.proj_geom", "enum_points"),
    ("proj_geom.subspace_member_indices", "unitals.proj_geom", "subspace_member_indices"),
    ("proj_geom.incidence_matrix", "unitals.proj_geom", "incidence_matrix"),
    ("proj_geom.apply_collineation", "unitals.proj_geom", "apply_collineation"),
    ("proj_geom.PointSet.complement", "unitals.proj_geom", "PointSet.complement"),
    ("varieties.hermitian_variety", "unitals.varieties", "hermitian_variety"),
    ("varieties.random_hermitian_form", "unitals.varieties", "random_hermitian_form"),
    ("varieties.all_valid_bm_params", "unitals.varieties", "all_valid_bm_params"),
    ("varieties.bm_unital", "unitals.varieties", "bm_unital"),
    ("varieties.is_unital_embedded", "unitals.varieties", "is_unital_embedded"),
    ("varieties.blocks_of", "unitals.varieties", "blocks_of"),
    ("varieties.check_property_I", "unitals.varieties", "check_property_I"),
    ("varieties.fit_hermitian_form", "unitals.varieties", "fit_hermitian_form"),
    ("census.intersect_size", "unitals.census", "intersect_size"),
    ("census.run", "unitals.census", "kestenband_census"),
    ("census.run", "unitals.census", "bm_vs_hermitian_census"),
    ("census.run", "unitals.census", "general_unital_congruence"),
    ("census.run", "unitals.census", "hermitian_pair_divisibility"),
    ("census.run", "unitals.census", "nonhermitian_pair_scan"),
    ("census.CensusReport.to_json", "unitals.census", "CensusReport.to_json"),
    ("padic_invariants.snf_valuation_multiset", "unitals.padic_invariants", "snf_valuation_multiset"),
    ("galois_ring.make_ring", "unitals.galois_ring", "make_ring"),
    ("galois_ring.herm_char_value", "unitals.galois_ring", "herm_char_value"),
    ("cli.main", "unitals.cli", "main"),
)

# Spans the worker opens itself around work that has no single entry point.
HARNESS_SPANS = ("padic_invariants.formula",)

SPAN_NAMES = tuple(dict.fromkeys([name for name, _, _ in TARGETS] + list(HARNESS_SPANS)))


class Tracer:
    """In-memory span recorder; one per traced worker process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def instrument(self) -> None:
        """Replace every target in every loaded `unitals` module by a traced wrapper."""
        for name, modname, attr in TARGETS:
            owner = importlib.import_module(modname)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            traced = self.wrap(name, original)
            if path:
                setattr(owner, leaf, traced)
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").partition(".")[0] != "unitals":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls and self seconds per span name; every known name is present."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - inner
        return out
