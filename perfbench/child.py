"""One run of one workload, in a fresh process started by run.py.

    python3 perfbench/child.py WORKLOAD INPUT_DIR OUT_DIR TRACE RUN_ID

Imports the program the way the `lrsd` command does, runs the workload once
through the program's public functions, writes its outputs and
`child.json` (import time, per-instance records and, with TRACE=1, spans and
counters) to OUT_DIR, and exits with the program's exit code: 0, or 3 when
a solve hit its iteration cap. WORKLOAD `warm` only imports the program and
reads INPUT_DIR, to fill the bytecode and page caches before timing.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
IMPORT_START = time.perf_counter()
import lrsd.cli  # noqa: E402  (first, and timed: the import every `lrsd` command pays)
IMPORT_END = time.perf_counter()

import numpy as np  # noqa: E402

from inputs import MIN_COVERAGE  # noqa: E402
from tracing import Tracer  # noqa: E402

EXIT_NO_CONVERGENCE = 3


def solve_pass_model(n: int, p: int) -> tuple[float, float]:
    """Computed (not measured) flops and bytes moved by one sweep of `solve`.

    Counted from the full n x p array passes visible in the loop body:
    d - E (3 passes), thin SVD (read A, write U: 2, at the Golub-Van Loan
    R-SVD cost 6np^2 + 20p^3), U * s (2), @ Vt (2, 2np^2), d - X (3),
    soft_threshold's sign, abs, -beta, maximum, multiply (11), the objective's
    two subtractions, square, sum, abs and sum (12) and the stall test's
    array_equal (2): 37 passes of 8-byte floats, 14 elementwise flops per
    entry.
    """
    flops = 8.0 * n * p * p + 20.0 * p ** 3 + 14.0 * n * p
    return flops, 37.0 * 8 * n * p


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _on_parse(tr, args, kwargs, res):
    tr.count("sumstats.parse_study.records", len(res.records))
    tr.count("sumstats.parse_study.rss_hwm_mb", _rss_mb())


def _on_align(tr, args, kwargs, res):
    imputed = int(res.imputed_mask.sum())
    tr.count("sumstats.align.imputed", imputed)
    tr.count("sumstats.align.converted", res.imputed_mask.size - imputed)
    tr.count("sumstats.align.rss_hwm_mb", _rss_mb())


def _on_write_panel(tr, args, kwargs, res):
    paths = (_arg(args, kwargs, 1, "z_path"), _arg(args, kwargs, 2, "mask_path"))
    tr.count("sumstats.write_panel.bytes", sum(os.path.getsize(p) for p in paths))


def _on_write_tsv(tr, args, kwargs, res):
    tr.count("matrix.write_tsv.bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))
    tr.count("matrix.write_tsv.calls", 1)


def _on_read_tsv(tr, args, kwargs, res):
    tr.count("matrix.read_tsv.bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _on_solve(tr, args, kwargs, res):
    n, p = np.shape(getattr(_arg(args, kwargs, 0, "D"), "values", _arg(args, kwargs, 0, "D")))
    tol = _arg(args, kwargs, 1, "config").rel_tolerance
    f = res.objective_trace
    fired = [k for k in range(1, len(f)) if (f[k - 1] - f[k]) / max(f[k - 1], 1.0) < tol]
    flops, nbytes = solve_pass_model(n, p)
    tr.count("solver.solve.iterations", res.iterations_used)
    tr.count("solver.solve.polish_iters", len(f) - 1 - fired[0] if fired else 0)
    tr.count("solver.solve.rank_of_X", res.rank_of_X)
    tr.count("solver.solve.nnz_of_E", res.nnz_of_E)
    tr.count("solver.solve.rss_hwm_mb", _rss_mb())
    tr.count("solver.solve.flops_est", flops)
    tr.count("solver.solve.bytes_est", nbytes)


def _on_generate(tr, args, kwargs, res):
    tr.count("simulate.generate.calls", 1)


def _on_extract(tr, args, kwargs, res):
    rows = _arg(args, kwargs, 0, "result").X_hat.shape[0]
    tr.count("reporting.extract_snps.shared_frac", len(res.shared) / rows)


def _on_report(tr, args, kwargs, res):
    paths = (_arg(args, kwargs, 1, "shared_path"), _arg(args, kwargs, 2, "specific_path"))
    tr.count("reporting.write_snp_report.bytes", sum(os.path.getsize(p) for p in paths))


def instrument(tr: Tracer, lrsd) -> None:
    """Wrap every public call the workloads make, where the caller looks it up."""
    cli, solver = lrsd.cli, lrsd.solver
    for name, targets, hook in [
        ("sumstats.read_manifest", [(cli, "read_manifest")], None),
        ("sumstats.parse_study", [(cli, "parse_study")], _on_parse),
        ("sumstats.align", [(cli, "align")], _on_align),
        ("sumstats.write_panel", [(cli, "write_panel")], _on_write_panel),
        ("matrix.write_tsv", [(cli, "write_tsv"), (lrsd.sumstats, "write_tsv")], _on_write_tsv),
        ("matrix.read_tsv", [(cli, "read_tsv")], _on_read_tsv),
        ("solver.estimate_sigma", [(cli, "estimate_sigma")], None),
        ("solver.auto_config", [(solver, "auto_config")], None),
        ("solver.solve", [(cli, "solve"), (solver, "solve")], _on_solve),
        ("solver.detect", [(solver, "detect")], None),
        ("metrics.score", [(lrsd.metrics, "score")], None),
        ("simulate.generate", [(lrsd.simulate, "generate")], _on_generate),
        ("reporting.embed_studies", [(cli, "embed_studies")], None),
        ("reporting.write_embedding_tsv", [(cli, "write_embedding_tsv")], None),
        ("reporting.extract_snps", [(cli, "extract_snps")], _on_extract),
        ("reporting.write_snp_report", [(cli, "write_snp_report")], _on_report),
    ]:
        tr.patch(name, targets, hook)


def run_analyze(lrsd, inp: Path, out: Path, rec: dict) -> int:
    return lrsd.cli.main(["analyze", "--manifest", str(inp / "studies.txt"),
                          "--min-coverage", str(MIN_COVERAGE), "--out", str(out)])


def run_decompose(lrsd, inp: Path, out: Path, rec: dict) -> int:
    return lrsd.cli.main(["decompose", "--input", str(inp / "z.tsv"), "--out", str(out)])


def run_tall(lrsd, inp: Path, out: Path, rec: dict) -> int:
    solver = lrsd.solver
    D = np.load(inp / "D.npy")
    cfg = solver.auto_config(D)
    res = solver.solve(D, cfg)
    mask = solver.detect(res, cfg.detection_threshold)
    np.save(out / "X.npy", res.X_hat.values)
    np.save(out / "E.npy", res.E_hat.values)
    np.save(out / "mask.npy", mask)
    rec.update(converged=[res.converged],
               params=[[cfg.alpha, cfg.beta, cfg.detection_threshold]])
    return 0 if res.converged else EXIT_NO_CONVERGENCE


def run_grid(lrsd, inp: Path, out: Path, rec: dict) -> int:
    simulate, solver, metrics = lrsd.simulate, lrsd.solver, lrsd.metrics
    cells = json.loads((inp / "grid.json").read_text())
    latency, f1, converged, params, xs, es = [], [], [], [], [], []
    for cell in cells:
        for seed in cell["seeds"]:
            t0 = time.perf_counter()
            inst = simulate.generate(simulate.PatternSpec(
                pattern_id=cell["pattern"], signal_divisor=cell["divisor"], seed=seed))
            cfg = solver.auto_config(inst.data)
            res = solver.solve(inst.data, cfg)
            report = metrics.score(solver.detect(res, cfg.detection_threshold), inst.truth_mask)
            latency.append(time.perf_counter() - t0)
            f1.append(report.f1)
            converged.append(res.converged)
            params.append([cfg.alpha, cfg.beta, cfg.detection_threshold])
            xs.append(res.X_hat.values)
            es.append(res.E_hat.values)
    np.save(out / "X.npy", np.stack(xs))
    np.save(out / "E.npy", np.stack(es))
    rec.update(latency_s=latency, f1=f1, converged=converged, params=params)
    return 0 if all(converged) else EXIT_NO_CONVERGENCE


def warm(inp: Path) -> int:
    for path in inp.iterdir():
        with open(path, "rb") as fh:
            while fh.read(1 << 20):
                pass
    return 0


WORKLOADS = {
    "analyze_panel": run_analyze,
    "decompose_tsv": run_decompose,
    "solve_tall": run_tall,
    "sim_grid": run_grid,
}
CLI_WORKLOADS = ("analyze_panel", "decompose_tsv")


def main() -> int:
    workload, inp, out, trace, run_id = sys.argv[1:6]
    inp, out = Path(inp), Path(out)
    if workload == "warm":
        return warm(inp)

    rec: dict = dict(import_s=IMPORT_END - IMPORT_START)
    tracer = Tracer(int(run_id)) if trace == "1" else None
    body = WORKLOADS[workload]
    if tracer is not None:
        tracer.spans.append(["cli.import", IMPORT_START, IMPORT_END, None])
        instrument(tracer, lrsd)
        root = "cli.main" if workload in CLI_WORKLOADS else "bench.run"
        body = tracer.span(root, body)
    rc = body(lrsd, inp, out, rec)
    if tracer is not None:
        rec.update(spans=tracer.export(), counts=tracer.counts)
    (out / "child.json").write_text(json.dumps(rec))
    return rc


if __name__ == "__main__":
    sys.exit(main())
