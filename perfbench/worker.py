"""One benchmark workload, run once in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py --workload census-q5 --seed 1729 \
        --tmp DIR [--setup-only] [--spans FILE]

The process-global caches of `unitals` (`make_field`, `_space`) start empty,
so the set-up phase costs what a command-line user pays on every run.  The
worker prints one JSON line: the clock reading at the end of set-up with the
speed sampled up to then (see probe.py), the seconds and the mean tick time of
each timed operation, the operation counts, the checks it made and the failed
ones, its peak RSS and, when traced, the per-layer summary.  Output checks
run outside the timed regions and call no traced function.

The workload code looks up every `unitals` function at call time (as
`unitals.name`), so the traced wrappers that `spans.py` installs are the ones
called.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import io
import json
import random
import resource
import sys
import time
from pathlib import Path

from probe import Sampler, edge_ticks  # perfbench/probe.py, next to this file

# Sample the machine's speed from here on, so that set-up is scaled too.
SAMPLER = Sampler()
SAMPLER.start()

import unitals  # noqa: E402
from unitals import cli  # noqa: E402

HERE = Path(__file__).resolve().parent
FROZEN = json.loads((HERE / "frozen.json").read_text())
DEFAULT_SEED = 1729

# Sweep and sampled census invocations: (key, CLI flags, expected records).
CENSUS_SWEEP = (
    ("general-q5", ["--kind", "general", "--q", "5"], 4200),
    ("bm-vs-hermitian-q5", ["--kind", "bm-vs-hermitian", "--q", "5"], 4200),
)
CENSUS_SAMPLED = (
    ("kestenband-q5", ["--kind", "kestenband", "--q", "5", "--samples", "200"], 200),
    ("hermitian-pairs-n3-q2", ["--kind", "hermitian-pairs", "--n", "3", "--q", "2", "--samples", "200"], 200),
    ("hermitian-pairs-n2-q3", ["--kind", "hermitian-pairs", "--n", "2", "--q", "3", "--samples", "200"], 200),
    ("nonhermitian-scan-q5", ["--kind", "nonhermitian-scan", "--q", "5", "--samples", "200"], 200),
)
# SNF oracle cases: (key, n, r, q) for A_{r,1} of PG(n, q^2).
SNF_CASES = (
    ("A21-PG(2,4)", 2, 2, 2),
    ("A21-PG(2,9)", 2, 2, 3),
    ("A21-PG(3,4)", 3, 2, 2),
    ("A31-PG(3,4)", 3, 3, 2),
)
# The seed permutes the rows and columns of every SNF matrix this many times.
# The valuation multiset does not change, but the elimination path and its
# cost do; over three paths per matrix the cost depends far less on the seed.
SNF_PERMUTATIONS = 3
GEOMETRY_QS = (7, 8, 9)
VERIFY_PER_Q = 8
# Fits per q of a = 0 pairs, and of a != 0 pairs.  Their cost varies by about
# a quarter from pair to pair, so one pair of each per q would make the fit
# rate depend on the seed.
FITS_PER_KIND = 3
CHARFN_QS = (7, 8, 9)


class Run:
    """Timers, counters and check results of one worker process."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.op_s: dict[str, list[float]] = {}
        self.tick_s: dict[str, list[float]] = {}
        self.ops: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.checks = 0
        self.failures: list[str] = []

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def timed(self, stage: str, ops: list) -> list:
        """Call and time each of `ops` in turn, with the machine's speed sampled (probe.py).

        Records each operation's seconds, less the time spent in ticks, and
        its mean tick time; returns their results, which the caller checks
        afterwards, outside the timed region.  The operations of a stage come
        in a fixed order.
        """
        times = self.op_s.setdefault(stage, [])
        ticks = self.tick_s.setdefault(stage, [])
        results = []
        for op in ops:
            gc.collect()
            before = edge_ticks()
            SAMPLER.start()
            t0 = time.perf_counter()
            results.append(op())
            SAMPLER.stop()
            times.append(time.perf_counter() - t0 - SAMPLER.spent)
            around = before + SAMPLER.ticks + edge_ticks()
            ticks.append(sum(around) / len(around))
        return results

    def check(self, ok: bool, what: str) -> bool:
        self.checks += 1
        if not ok:
            self.failures.append(what)
        return ok

    def count(self, stage: str, n: int = 1) -> None:
        self.ops[stage] = self.ops.get(stage, 0) + n

    def expect(self, stage: str, n: int) -> None:
        """Non-vacuity: a stage must have done all the operations it was meant to."""
        got = self.ops.get(stage, 0)
        self.check(got == n, f"{stage}: {got} operations, expected {n}")


def build_geometry(run: Run, n: int, q: int):
    """Field, points, lines and the line incidence masks of PG(n, q^2)."""
    field = unitals.field_for_q(q)
    points = unitals.enum_points(n, field)
    lines = unitals.subspace_member_indices(n, 2, field)
    inc = unitals.incidence_matrix(n, 2, field)
    Q = field.size
    run.check(len(points) == unitals.gaussian_binomial(n + 1, 1, Q), f"PG({n},{Q}) point count")
    run.check(len(lines) == inc.n_rows == unitals.gaussian_binomial(n + 1, 2, Q), f"PG({n},{Q}) line count")
    return field


def run_cli(tmp: Path, key: str, argv: list[str]) -> tuple[int, bytes, str]:
    """Call `unitals.cli.main` in-process; returns exit code, report bytes, stderr."""
    out = tmp / f"{key}.json"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--out", str(out)])
    data = out.read_bytes() if out.exists() else b""
    out.unlink(missing_ok=True)
    return code, data, err.getvalue()


# ---------------------------------------------------------------------------
# workloads


def census_setup(run: Run, seed: int) -> None:
    for n, q in ((2, 5), (3, 2), (2, 3)):
        build_geometry(run, n, q)


def census_stages(run: Run, seed: int, tmp: Path, state: None) -> None:
    for stage, group in (("sweep", CENSUS_SWEEP), ("sampled", CENSUS_SAMPLED)):
        outputs = run.timed(
            stage,
            [functools.partial(run_cli, tmp, key, ["census"] + flags + ["--seed", str(seed)]) for key, flags, _ in group],
        )
        for (key, _, expected), (code, data, err) in zip(group, outputs):
            check_census(run, key, seed, code, data, err, expected, stage)
    run.expect("sweep", 8400)
    run.expect("sampled", 800)


def check_census(run: Run, key: str, seed: int, code: int, data: bytes, err: str, expected: int, stage: str) -> None:
    if not run.check(code == 0, f"{key}: exit code {code}: {err.strip()[-300:]}"):
        return
    report = json.loads(data)
    records = report["records"]
    run.count(stage, len(records))
    run.counters["census.records"] = run.counters.get("census.records", 0) + len(records)
    summary = report["summary"]
    redraws = summary.get("coincident_redraws", 0) + summary.get("degenerate_redraws", 0)
    run.counters["census.redraws"] = run.counters.get("census.redraws", 0) + redraws
    run.check(len(records) == expected, f"{key}: {len(records)} records, expected {expected}")
    run.check(summary.get("ok") is True and all(r["ok"] for r in records), f"{key}: summary not ok")
    if seed == DEFAULT_SEED:
        digest = hashlib.sha256(data).hexdigest()
        run.check(digest == FROZEN["census_sha256"][key], f"{key}: report digest {digest}")


def geometry_setup(run: Run, seed: int) -> dict:
    return {q: build_geometry(run, 2, q) for q in GEOMETRY_QS}


def geometry_stages(run: Run, seed: int, tmp: Path, fields: dict) -> None:
    rng = random.Random(seed)

    def verify(pr):
        U = unitals.bm_unital(pr)
        check = unitals.is_unital_embedded(U)
        blocks = unitals.blocks_of(U)
        return check, len(blocks), unitals.check_property_I(U.complement(), 2, pr.field.t)

    def fit(pr):
        U = unitals.bm_unital(pr)
        return U, unitals.fit_hermitian_form(U)

    for q in GEOMETRY_QS:
        field = fields[q]
        [params] = run.timed("verify", [functools.partial(unitals.all_valid_bm_params, field)])
        chosen = rng.sample(params, VERIFY_PER_Q)
        outputs = run.timed("verify", [functools.partial(verify, pr) for pr in chosen])
        for pr, (check, n_blocks, prop) in zip(chosen, outputs):
            run.count("verify")
            tag = f"q={q} (a,b)=({pr.a.enc},{pr.b.enc})"
            run.check(check.ok and check.size == q**3 + 1, f"{tag}: not a unital")
            run.check(n_blocks == q * q * (q * q - q + 1), f"{tag}: {n_blocks} blocks")
            run.check(prop, f"{tag}: complement fails property I")
        hermitian = rng.sample([pr for pr in params if not pr.a], FITS_PER_KIND)
        proper = rng.sample([pr for pr in params if pr.a], FITS_PER_KIND)
        chosen = hermitian + proper
        outputs = run.timed("fit", [functools.partial(fit, pr) for pr in chosen])
        for pr, (U, form) in zip(chosen, outputs):
            run.count("fit")
            tag = f"q={q} (a,b)=({pr.a.enc},{pr.b.enc})"
            if pr.a:
                run.check(form is None, f"{tag}: a form fits a non-Hermitian unital")
            else:
                # A nonsingular Hermitian curve has exactly q^3+1 points, as U has.
                run.check(
                    form is not None
                    and form.is_nonsingular
                    and all(form.evaluate(pt) == field.zero for pt in U.coords()),
                    f"{tag}: no Hermitian form recovered",
                )
    run.expect("verify", VERIFY_PER_Q * len(GEOMETRY_QS))
    run.expect("fit", 2 * FITS_PER_KIND * len(GEOMETRY_QS))


def oracles_setup(run: Run, seed: int) -> list:
    rng = random.Random(seed)
    cases = []
    for key, n, r, q in SNF_CASES:
        field = unitals.field_for_q(q)
        dense = unitals.incidence_matrix(n, r, field).to_dense()
        perms = []
        for _ in range(SNF_PERMUTATIONS):
            rows = rng.sample(range(len(dense)), len(dense))
            cols = rng.sample(range(len(dense[0])), len(dense[0]))
            perms.append([[dense[i][j] for j in cols] for i in rows])
        cases.append((key, n, r, field, perms))
    for q in CHARFN_QS:
        unitals.field_for_q(q)
    return cases


def oracles_stages(run: Run, seed: int, tmp: Path, cases: list) -> None:
    def formula(n, r, field):
        with run.span("padic_invariants.formula"):
            return sorted(
                unitals.monomial_invariant_exponent(m, field.p, field.t, r) for m in unitals.enum_basis_monomials(n, field)
            )

    # Per matrix: the formula, then the SNF of every permutation.
    ops = []
    for key, n, r, field, perms in cases:
        ops.append(functools.partial(formula, n, r, field))
        ops += [functools.partial(unitals.snf_valuation_multiset, matrix, field.p) for matrix in perms]
    outputs = iter(run.timed("snf", ops))
    for key, n, r, field, perms in cases:
        exponents = next(outputs)
        run.check(_multiset(exponents) == FROZEN["snf_multiset"][key], f"{key}: formula differs from the frozen multiset")
        for k, matrix in enumerate(perms):
            snf = next(outputs)
            run.count("snf")
            run.counters["padic_invariants.snf_cells"] = (
                run.counters.get("padic_invariants.snf_cells", 0) + len(matrix) * len(matrix[0])
            )
            run.check(list(snf) == exponents, f"{key} permutation {k}: SNF multiset differs from the formula")
    outputs = run.timed(
        "charfn",
        [functools.partial(run_cli, tmp, f"charfn-{q}", ["charfn-check", "--q", str(q), "--ell", "1"]) for q in CHARFN_QS],
    )
    for q, (code, data, err) in zip(CHARFN_QS, outputs):
        if not run.check(code == 0, f"charfn q={q}: exit code {code}: {err.strip()[-300:]}"):
            continue
        result = json.loads(data)
        run.count("charfn", result["points"])
        expected = q**4 + q**2 + 1
        run.check(result["points"] == expected, f"charfn q={q}: {result['points']} points, expected {expected}")
        run.check(result["mismatches"] == [], f"charfn q={q}: {len(result['mismatches'])} mismatches")
    run.expect("snf", len(SNF_CASES) * SNF_PERMUTATIONS)
    run.expect("charfn", 13255)


def _multiset(values) -> dict[str, int]:
    out: dict[str, int] = {}
    for v in values:
        out[str(v)] = out.get(str(v), 0) + 1
    return out


WORKLOADS = {
    "census-q5": (census_setup, census_stages),
    "geometry-q789": (geometry_setup, geometry_stages),
    "oracles": (oracles_setup, oracles_stages),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--tmp", type=Path, required=True, help="directory for report files")
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up")
    ap.add_argument("--spans", type=Path, help="trace the run and write its spans here")
    args = ap.parse_args(argv)

    tracer = None
    if args.spans:
        from spans import Tracer  # perfbench/spans.py, next to this file

        tracer = Tracer()
        tracer.instrument()
    run = Run(tracer)
    setup, stages = WORKLOADS[args.workload]
    state = setup(run, args.seed)
    SAMPLER.stop()
    setup_end = time.perf_counter()
    setup_spent = SAMPLER.spent
    setup_ticks = SAMPLER.ticks + edge_ticks()
    if not args.setup_only:
        stages(run, args.seed, args.tmp, state)
    result = {
        "setup_end": setup_end,
        "setup_spent": setup_spent,
        "setup_ticks": [len(setup_ticks), sum(setup_ticks)],
        "op_s": run.op_s,
        "tick_s": run.tick_s,
        "ops": run.ops,
        "counters": run.counters,
        "checks": run.checks,
        "failures": run.failures,
        "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        result["layers"] = tracer.summary()
        args.spans.write_text(json.dumps(tracer.spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
