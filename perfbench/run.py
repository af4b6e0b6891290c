#!/usr/bin/env python3
"""The lrsd benchmark: four workloads, end-to-end metrics, per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from `src/`
(nothing is installed) and reads and writes only under `.perfbench-out/`.

Workloads (closed loop, one client: one run at a time, each in a fresh
child process with one BLAS thread):

  analyze_panel  `lrsd analyze --min-coverage 16` on 32 generated study TSVs,
                 each covering ~95% of a 10,000-SNP universe, with a planted
                 rank-1 shared block, study-specific spikes and p-values
                 below the program's clamp.
  decompose_tsv  `lrsd decompose` on a labelled 20,000 x 32 z-score TSV.
  solve_tall     `auto_config`, `solve`, `detect` at 466,423 x 32, the paper's
                 real-data shape, on the scripts/run_scale_probe.py matrix.
  sim_grid       the 12-cell simulation grid (patterns 1-4 x divisors 1.0,
                 1.2, 1.5, 20 consecutive seeds per cell): `generate`,
                 `auto_config`, `solve`, `detect`, `score` per 100 x 50
                 instance.

One benchmark run: generate the inputs from --seed, run one untimed warm-up
child (a full run, except on solve_tall), then start timed children until
--seconds have passed (at least one), checking each child's outputs after
it exits. The inputs are generated six times in all, three before the
timed children and three after; setup_s is the median and the digests
must agree. With --trace 1, traced and untraced children alternate; the
traced ones wrap each public call the workload makes in a span (see
child.py) and give the per-layer metrics, the untraced ones the tracing
overhead.

End-to-end metrics (--trace 0), medians over the run's children unless
stated. A child is one `lrsd` invocation, one tall solve, or one pass
over the grid:
  wall_s           child wall time, from spawn to reaped
  cpu_s            child user + system CPU time (os.wait4 rusage)
  peak_rss_mb      child peak resident set (os.wait4 rusage)
  setup_s          input generation time, median of six
  f1_mean          detection F1 against the planted signal (mean over
                   the instances of sim_grid)
  instance_ms_p50  per-instance latency: one grid instance on sim_grid,
  instance_ms_p95  one child elsewhere
The last line printed is one JSON object with `correct`, `attempted`,
`failed` and `metrics` (the end-to-end metrics, or with --trace 1 the
per-layer ones). `attempted` and `failed` count children, so the error
rate is failed / attempted; a child fails on a non-zero exit code (3: the
iteration cap) or on any failed check in checks.py. A full record (machine,
versions, input digest, every child, spans) goes to .perfbench-out/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import scipy

from inputs import MAKERS, digest, load_truth
from tracing import self_times, span_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
# One BLAS thread: with two, the 100 x 50 solves of sim_grid burn twice
# the CPU for no gain and their wall time spread across seeds doubled
# (IQR/median 0.23 against 0.11). The second CPU is left to the system.
BLAS_THREADS = 1
SETUP_REPEATS = 6         # half before the timed runs, half after, so that
                          # setup_s samples the machine over the whole run
DEADLINE_S = 170.0        # every run must end within 180 s
LAYERS = ("cli", "sumstats", "matrix", "solver", "reporting", "simulate", "metrics")

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "f1_mean": "ratio",
    "instance_ms_p50": "ms",
    "instance_ms_p95": "ms",
}
# name -> (unit, how the values of one traced child combine). "span" sums
# the inclusive seconds of every span of that name; count reducers apply
# to the values the child's hooks recorded, one per call.
PER_LAYER = {
    "sumstats.parse_study.s": ("s", "span"),
    "sumstats.parse_study.records": ("count", "sum"),
    "sumstats.parse_study.rss_hwm_mb": ("MB", "max"),
    "sumstats.align.s": ("s", "span"),
    "sumstats.align.converted": ("count", "sum"),
    "sumstats.align.imputed": ("count", "sum"),
    "sumstats.align.rss_hwm_mb": ("MB", "max"),
    "sumstats.write_panel.s": ("s", "span"),
    "sumstats.write_panel.bytes": ("B", "sum"),
    "matrix.write_tsv.s": ("s", "span"),
    "matrix.write_tsv.bytes": ("B", "sum"),
    "matrix.write_tsv.calls": ("count", "sum"),
    "matrix.read_tsv.s": ("s", "span"),
    "matrix.read_tsv.bytes": ("B", "sum"),
    "solver.auto_config.s": ("s", "span"),
    "solver.solve.s": ("s", "span"),
    "solver.solve.iterations": ("count", "mean"),
    "solver.solve.s_per_iter": ("s", "derived"),
    "solver.solve.polish_iters": ("count", "mean"),
    "solver.solve.rss_hwm_mb": ("MB", "max"),
    "solver.solve.rank_of_X": ("count", "mean"),
    "solver.solve.nnz_of_E": ("count", "mean"),
    "solver.solve.flops_est": ("flop", "mean"),
    "solver.solve.bytes_est": ("B", "mean"),
    "solver.optimality_residual.rel": ("ratio", "derived"),
    "solver.detect.s": ("s", "span"),
    "metrics.score.s": ("s", "span"),
    "simulate.generate.s": ("s", "span"),
    "simulate.generate.calls": ("count", "sum"),
    "reporting.extract_snps.s": ("s", "span"),
    "reporting.extract_snps.shared_frac": ("ratio", "mean"),
    "reporting.write_snp_report.s": ("s", "span"),
    "reporting.write_snp_report.bytes": ("B", "sum"),
    "reporting.embed_studies.s": ("s", "span"),
    "cli.import_s": ("s", "derived"),
    **{f"{layer}.self_s": ("s", "derived") for layer in LAYERS},
    "trace.overhead_s": ("s", "derived"),
}
WORKLOADS = ("analyze_panel", "decompose_tsv", "solve_tall", "sim_grid")
# The first child after setup ran up to 40% slower (on a VM that hands
# free pages back to its host, memory not touched for a few seconds costs
# more to touch again), so these workloads make one full untimed run
# first. solve_tall's warm-up only imports and reads its input: a full run
# would add 26 s to every benchmark run, and its single timed run is long
# enough to absorb the cold start.
FULL_WARMUP = ("analyze_panel", "decompose_tsv", "sim_grid")


def machine() -> dict:
    info = dict(nproc=len(os.sched_getaffinity(0)), cpu_count=os.cpu_count(),
                platform=platform.platform(), python=platform.python_version(),
                numpy=np.__version__, scipy=scipy.__version__, blas_threads=BLAS_THREADS)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    for path, key, field in (("/proc/meminfo", "ram", "MemTotal"),
                             ("/proc/cpuinfo", "cpu_model", "model name")):
        try:
            with open(path) as fh:
                line = next((ln for ln in fh if ln.startswith(field)), "")
            info[key] = line.split(":", 1)[1].strip() if line else "unknown"
        except OSError:
            info[key] = "unknown"
    return info


def child_env() -> dict:
    threads = str(BLAS_THREADS)
    return dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                MKL_NUM_THREADS=threads, PYTHONHASHSEED="0")


def spawn(args: list[str], out: Path, timeout: float) -> dict:
    """Run child.py once and reap it with os.wait4, for this child's rusage."""
    out.mkdir(parents=True)
    with open(out / "stdout.txt", "wb") as so, open(out / "stderr.txt", "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                                stdout=so, stderr=se, env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return dict(rc=proc.returncode, wall_s=wall, cpu_s=ru.ru_utime + ru.ru_stime,
                rss_mb=ru.ru_maxrss / 1024)


def make_inputs(workload: str, seed: int, dest: Path, setup: dict) -> None:
    """Generate the inputs into dest, adding the time taken and the digest to setup."""
    dest.mkdir()
    t0 = time.perf_counter()
    MAKERS[workload](dest, seed)
    setup["times"].append(time.perf_counter() - t0)
    setup["digests"].add(digest(dest))


def repeat_setup(workload: str, seed: int, work: Path, setup: dict, n: int) -> None:
    for _ in range(n):
        dest = work / f"setup{len(setup['times'])}"
        make_inputs(workload, seed, dest, setup)
        shutil.rmtree(dest)


def timed_runs(workload: str, inputs: Path, work: Path, ctx: dict, seconds: float,
               trace: bool, deadline: float) -> list[dict]:
    from checks import check  # imports the program, which main() has put on sys.path

    runs: list[dict] = []
    t_start = time.perf_counter()
    while True:
        traced = trace and len(runs) % 2 == 1
        out = work / f"run{len(runs)}"
        run = spawn([workload, str(inputs), str(out), str(int(traced)), str(len(runs))],
                    out, deadline - time.perf_counter())
        run["traced"] = traced
        try:
            run["rec"] = json.loads((out / "child.json").read_text())
        except (OSError, ValueError):
            run["rec"] = {}
        try:
            run["residual_rel"], run["f1"] = check(workload, run["rc"], out, ctx, run["rec"])
            run["error"] = None
        except Exception as exc:  # any failed check or unreadable output fails the run
            err = (out / "stderr.txt").read_text()[-400:].strip()
            run["error"] = f"{type(exc).__name__}: {exc}" + (f" | stderr: {err}" if err else "")
        shutil.rmtree(out)
        runs.append(run)
        now = time.perf_counter()
        enough = now - t_start >= seconds and (not trace or len(runs) % 2 == 0)
        if enough or now + max(r["wall_s"] for r in runs) * 1.5 > deadline:
            return runs


def end_to_end(workload: str, runs: list[dict], setup_times: list[float]) -> dict:
    untraced = [r for r in runs if not r["traced"]]
    if workload == "sim_grid":
        latencies = [t * 1e3 for r in untraced for t in r["rec"].get("latency_s", [])]
    else:
        latencies = [r["wall_s"] * 1e3 for r in untraced]
    f1 = [statistics.fmean(r["f1"]) for r in untraced if r.get("f1")]
    values = dict(
        wall_s=(statistics.median(r["wall_s"] for r in untraced), len(untraced)),
        cpu_s=(statistics.median(r["cpu_s"] for r in untraced), len(untraced)),
        peak_rss_mb=(statistics.median(r["rss_mb"] for r in untraced), len(untraced)),
        setup_s=(statistics.median(setup_times), len(setup_times)),
        f1_mean=(statistics.median(f1) if f1 else 0.0, len(f1)),
        instance_ms_p50=(float(np.percentile(latencies, 50)), len(latencies)),
        instance_ms_p95=(float(np.percentile(latencies, 95)), len(latencies)),
    )
    return {k: dict(value=v, unit=END_TO_END[k], samples=n) for k, (v, n) in values.items()}


def per_layer(runs: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics (median over traced children) and the self-time table."""
    traced = [r for r in runs if r["traced"] and r["rec"].get("spans")]
    untraced = [r for r in runs if not r["traced"]]
    samples: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    tables = []
    for r in traced:
        spans, counts = r["rec"]["spans"], r["rec"]["counts"]
        totals, selfs = span_totals(spans), self_times(spans)
        tables.append(selfs)
        for name, (_, how) in PER_LAYER.items():
            if how == "span":
                samples[name].append(totals.get(name[: -len(".s")], 0.0))
            elif how in ("sum", "mean", "max") and counts.get(name):
                vals = counts[name]
                samples[name].append({"sum": sum, "max": max, "mean": statistics.fmean}[how](vals))
        iters = sum(counts.get("solver.solve.iterations", []))
        if iters:
            samples["solver.solve.s_per_iter"].append(totals.get("solver.solve", 0.0) / iters)
        samples["cli.import_s"].append(r["rec"]["import_s"])
        for layer in LAYERS:
            samples[f"{layer}.self_s"].append(selfs.get(layer, 0.0))
        if r.get("residual_rel") is not None:
            samples["solver.optimality_residual.rel"].append(r["residual_rel"])
    if traced and untraced:
        samples["trace.overhead_s"].append(
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in untraced))
    metrics = {name: dict(value=statistics.median(v) if v else 0.0, unit=PER_LAYER[name][0],
                          samples=len(v))
               for name, v in samples.items()}
    layers = sorted({k for t in tables for k in t})
    table = {k: statistics.median(t.get(k, 0.0) for t in tables) for k in layers}
    return metrics, table


def report(workload: str, seed: int, info: dict, digest: str, runs: list[dict],
           metrics: dict, table: dict | None) -> None:
    print(f"# lrsd benchmark: workload {workload}, seed {seed}, input sha256 {digest[:16]}")
    print("# machine: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    for k, r in enumerate(runs):
        status = "ok" if r["error"] is None else f"FAILED {r['error']}"
        print(f"# run {k}{' traced' if r['traced'] else ''}: wall {r['wall_s']:.3f} s, "
              f"cpu {r['cpu_s']:.3f} s, rss {r['rss_mb']:.0f} MB, exit {r['rc']}: {status}")
    failed = sum(r["error"] is not None for r in runs)
    print(f"# error_rate {failed}/{len(runs)} = {failed / len(runs):.3f}")
    if table is not None:
        total = sum(table.values())
        print("# self time per layer (median over traced runs):")
        for layer, t in sorted(table.items(), key=lambda kv: -kv[1]):
            print(f"#   {layer:<10} {t:10.4f} s  {100 * t / total:5.1f}%")
    for name, m in metrics.items():
        note = " (computed)" if name.endswith("_est") else ""
        print(f"{name:<36} {m['value']:>16.6g} {m['unit']:<6} n={m['samples']}{note}")


def main() -> int:
    parser = argparse.ArgumentParser(description="lrsd benchmark; see the module docstring.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    t_begin = time.perf_counter()
    deadline = t_begin + DEADLINE_S

    if not (ROOT / "src" / "lrsd" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'lrsd'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import lrsd.simulate  # noqa: F401  (sim_grid's setup uses it; keep its import out of setup_s)

    work = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup: dict = dict(times=[], digests=set())
        inputs = work / "inputs"
        make_inputs(args.workload, args.seed, inputs, setup)
        repeat_setup(args.workload, args.seed, work, setup, SETUP_REPEATS // 2 - 1)
        ctx = dict(inputs=inputs, seed=args.seed, truth=load_truth(inputs))
        warm = args.workload if args.workload in FULL_WARMUP else "warm"
        spawn([warm, str(inputs), str(work / "warm"), "0", "-1"], work / "warm",
              deadline - time.perf_counter())
        runs = timed_runs(args.workload, inputs, work, ctx, args.seconds, bool(args.trace),
                          deadline)
        repeat_setup(args.workload, args.seed, work, setup, SETUP_REPEATS // 2)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(setup["digests"]) != 1:
        print(f"error: input generation is not deterministic: {setup['digests']}", file=sys.stderr)
        return 1
    setup_times, digest = setup["times"], setup["digests"].pop()
    e2e = end_to_end(args.workload, runs, setup_times)
    layer, table = per_layer(runs) if args.trace else ({}, None)
    shown = layer if args.trace else e2e
    info = machine()
    report(args.workload, args.seed, info, digest, runs, shown, table)

    failed = sum(r["error"] is not None for r in runs)
    result = dict(correct=failed == 0, attempted=len(runs), failed=failed,
                  metrics={k: dict(value=m["value"], unit=m["unit"]) for k, m in shown.items()})
    record = dict(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=info, input_sha256=digest, setup_s=setup_times,
                  runs=[{k: v for k, v in r.items() if k != "rec"} for r in runs],
                  end_to_end=e2e, per_layer=layer, self_time=table,
                  spans=[s for r in runs for s in r["rec"].get("spans", [])],
                  total_s=time.perf_counter() - t_begin)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
