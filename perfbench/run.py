"""Benchmark of the unitals workbench: three workloads, each in fresh interpreters.

    python3 perfbench/run.py --workload census-q5 --seed 1729 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another

A run spawns `perfbench/worker.py` again and again for --seconds: full
workers, and between them set-up-only workers where set-up is short enough
(on two workloads it takes a fraction of a second, so a few samples would be
noise).  Every worker starts a new interpreter, so the process-global caches
of `unitals` start cold, as for a command-line user.  Workers run one at a
time, with one thread.

Other tenants of the machine slow it down by up to 2x for seconds to
minutes at a time.  So the machine's speed is sampled while every timed
operation and every set-up runs (probe.py), and its time is reported in
reference seconds: the measured time scaled by the reference tick time over
the mean tick time.

With --trace 0 the last line of standard output is a JSON object whose
metrics are the end-to-end metrics of BENCHMARK.json.  `setup_s` is the
median over all workers of the scaled set-up time.  A stage's time is the
sum over its timed operations of each operation's median scaled time over
the full workers.
With --trace 1 untraced and traced workers alternate and the metrics are the
per-layer ones: calls and self time per wrapped function (see spans.py) and
counters, unscaled, and the tracing overhead: scaled set-up and stage time of
traced workers less that of untraced ones.  Lines before the last one name
the workload's own metrics with their units, for people, and the measured
times next to the scaled ones.

Every worker checks its outputs (frozen digests and multisets at the default
seed, invariants at any seed) and that it did every operation it was meant
to.  Any failed check makes `correct` false and the exit code 1.  Without the
program's sources next to this directory the run exits 2 before measuring.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from probe import edge_ticks, scaled  # noqa: E402
from spans import SPAN_NAMES  # noqa: E402

DEFAULT_SEED = 1729
DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_SHARE = 0.15  # set-up-only time after a full worker, as a share of its time
MIN_FULL = 2
OVERRUN = 0.05  # a full worker may end this share of --seconds after the run's end

# Per workload: the worker stages timed as stage1_s and stage2_s, each with
# the name, unit and operation count people read.
STAGES = {
    "census-q5": (("sweep", "sweep_records_per_s", "records/s"), ("sampled", "sampled_records_per_s", "records/s")),
    "geometry-q789": (("verify", "verify_unitals_per_s", "unitals/s"), ("fit", "fits_per_s", "fits/s")),
    "oracles": (("snf", "snf_s", "s"), ("charfn", "charfn_points_per_s", "points/s")),
}
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "stage1_s": "s",
    "stage2_s": "s",
}


def spawn(workload: str, seed: int, tmp: Path, deadline: float, *, setup_only=False, spans=None):
    """Run one worker; returns (wall seconds, scaled and measured set-up seconds, its result or None, error text)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--tmp", str(tmp)]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    before = edge_ticks()
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - t0)
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, None, None, None, "worker timed out"
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        return wall, None, None, None, f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    setup = result["setup_end"] - t0 - result["setup_spent"]
    n, total = result["setup_ticks"]
    return wall, scaled(setup, (sum(before) + total) / (len(before) + n)), setup, result, ""


class Tally:
    """Checks attempted and failed over all workers of a run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, result, error: str) -> None:
        if result is None:
            self.attempted += 1
            self.failures.append(error)
        else:
            self.attempted += result["checks"]
            self.failures += result["failures"]


def stage_seconds(results: list[dict], stage: str) -> tuple[float, float]:
    """Sum over the stage's operations of each one's median time over the workers: scaled, and measured."""
    per_worker = [r["op_s"].get(stage, []) for r in results]
    ticks = [r["tick_s"].get(stage, []) for r in results]
    per_op = list(zip(zip(*per_worker), zip(*ticks)))
    return (
        sum(statistics.median(scaled(t, tick) for t, tick in zip(ts, tks)) for ts, tks in per_op),
        sum(statistics.median(ts) for ts, _ in per_op),
    )


def measure(workload: str, seed: int, seconds: float, trace: bool, tmp: Path, start: float) -> tuple[dict, Tally, list[str]]:
    deadline = start + DEADLINE_S
    end = time.perf_counter() + seconds * (1 + OVERRUN)
    tally = Tally()
    setups: list[float] = []  # scaled
    setups_measured: list[float] = []

    def fits(est: float) -> bool:
        """Whether a worker taking `est` seconds ends by the end of the run (with its overrun) and the deadline."""
        now = time.perf_counter()
        return now + est <= min(deadline - 5, end if len(plain) >= MIN_FULL else deadline)

    # Full workers, each followed by a few set-up-only workers, so that the
    # samples of every quantity are spread over the whole run.
    plain: list[tuple[float, float, dict]] = []  # (wall, scaled set-up, result) per full worker
    traced: list[tuple[float, float, dict]] = []
    spans_file = ROOT / ".perfbench-out" / f"spans-{workload}.json"
    if trace:
        spans_file.parent.mkdir(exist_ok=True)
    kinds = ((plain, None), (traced, spans_file)) if trace else ((plain, None),)
    est = 0.0
    while not plain or fits(est):
        t0 = time.perf_counter()
        for runs, spans in kinds:
            wall, setup, measured, result, error = spawn(workload, seed, tmp, deadline, spans=spans)
            tally.add(result, error)
            if result is None:
                return {}, tally, []
            runs.append((wall, setup, result))
            if spans is None:
                setups.append(setup)
                setups_measured.append(measured)
        budget = SETUP_SHARE * (time.perf_counter() - t0)
        spent = 0.0
        while spent + setups_measured[-1] <= budget:
            wall, setup, measured, result, error = spawn(workload, seed, tmp, deadline, setup_only=True)
            tally.add(result, error)
            if result is None:
                return {}, tally, []
            setups.append(setup)
            setups_measured.append(measured)
            spent += wall
        est = time.perf_counter() - t0

    # Every worker checked its own operation counts against the expected ones.
    results = [r for _, _, r in plain]
    stages = STAGES[workload]
    secs = [stage_seconds(results, stage) for stage, _, _ in stages]
    wall = min(w for w, _, _ in plain)
    summary = {
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(r["rss_kib"] / 1024 for r in results),
        "stage1_s": secs[0][0],
        "stage2_s": secs[1][0],
    }
    lines = [
        f"workload {workload}  seed {seed}  workers: {len(setups) - len(plain)} set-up only, "
        f"{len(plain)} full" + (f", {len(traced)} traced" if trace else ""),
        f"  setup_s {summary['setup_s']:.4f} s  (measured {statistics.median(setups_measured):.4f} s)",
        f"  wall_s {wall:.4f} s  (best full worker, measured; printed only)",
        f"  peak_rss_mib {summary['peak_rss_mib']:.2f} MiB",
    ]
    for k, ((stage, name, unit), (sec, measured)) in enumerate(zip(stages, secs), 1):
        ops = results[0]["ops"][stage]
        value = sec if unit == "s" else ops / sec
        lines.append(
            f"  stage{k}_s {sec:.4f} s = {name} {value:.4f} {unit}  ({ops} operations; measured {measured:.4f} s)"
        )
    error_rate = len(tally.failures) / max(1, tally.attempted)
    lines.append(f"  error_rate {error_rate:g} failed/attempted  ({len(tally.failures)}/{tally.attempted} checks)")

    if not trace:
        return {k: (v, END_TO_END[k]) for k, v in summary.items()}, tally, lines

    layered = [r["layers"] for _, _, r in traced]
    per_layer: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        per_layer[f"{name}.calls"] = (layered[0][name]["calls"], "count")
        per_layer[f"{name}.self_s"] = (min(lay[name]["self_s"] for lay in layered), "s")
    counters = traced[0][2]["counters"]
    records = counters.get("census.records", 0)
    redraws = counters.get("census.redraws", 0)
    per_layer["census.records"] = (records, "count")
    per_layer["census.redraws"] = (redraws, "count")
    per_layer["census.draw_accept_ratio"] = (records / (records + redraws) if records else 0.0, "ratio")
    per_layer["padic_invariants.snf_cells"] = (counters.get("padic_invariants.snf_cells", 0), "count")

    def scaled_total(runs) -> float:
        """Median scaled set-up plus the scaled times of both stages, over full workers."""
        stage_results = [r for _, _, r in runs]
        return statistics.median(s for _, s, _ in runs) + sum(stage_seconds(stage_results, st)[0] for st, _, _ in stages)

    overhead = scaled_total(traced) - scaled_total(plain)
    per_layer["trace.overhead_s"] = (overhead, "s")
    lines.append(f"  trace.overhead_s {overhead:.4f} s  (spans of the last traced worker: {spans_file.relative_to(ROOT)})")
    return per_layer, tally, lines


def main(argv=None) -> int:
    start = time.perf_counter()
    ap = argparse.ArgumentParser(description="Benchmark of the unitals workbench.")
    ap.add_argument("--workload", choices=sorted(STAGES) + ["all"], required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED, help="input seed; check a claimed gain on a second seed too")
    ap.add_argument("--seconds", type=float, default=40.0, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "unitals" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'unitals'}", file=sys.stderr)
        return 2
    # Installed packages run from bytecode; compile once so no worker pays for it.
    for tree in (ROOT / "src", HERE):
        compileall.compile_dir(tree, quiet=1)

    workloads = sorted(STAGES) if args.workload == "all" else [args.workload]
    metrics: dict[str, dict] = {}
    attempted = 0
    failures: list[str] = []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        for workload in workloads:
            values, tally, lines = measure(workload, args.seed, args.seconds, bool(args.trace), Path(tmp), start)
            start = time.perf_counter()
            print("\n".join(lines))
            for failure in tally.failures:
                print(f"  FAILED: {failure}")
            attempted += tally.attempted
            failures += tally.failures
            prefix = f"{workload}." if args.workload == "all" else ""
            for name, (value, unit) in values.items():
                metrics[prefix + name] = {"value": value, "unit": unit}
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
