"""Command-line interface: simulate, decompose, evaluate, analyze.

Exit codes: 0 success, 2 usage or input error, 3 solver hit the iteration
cap (outputs are still written).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .matrix import read_tsv, write_tsv
from .metrics import benchmark, benchmark_grid, score, write_benchmark_tsv
from .reporting import embed_studies, write_embedding_tsv, write_snp_report
from .simulate import PatternSpec, generate, save_instance
from .solver import (
    DegenerateInputError,
    SolverConfig,
    auto_threshold,
    estimate_sigma,
    resolve_params,
    solve,
)
from .sumstats import (
    SumstatsParseError,
    align,
    parse_study,
    read_manifest,
    write_panel,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3


def _write_manifest(path, entries: dict) -> None:
    with open(path, "w") as fh:
        fh.write(f"tool_version={__version__}\n")
        for key, value in entries.items():
            fh.write(f"{key}={value}\n")


def _cannot_write(exc: OSError, path) -> int:
    print(f"error: cannot write {exc.filename or path}: {exc.strerror}", file=sys.stderr)
    return EXIT_INPUT


class _Stages:
    """Wall time per pipeline stage, summed over `time.monotonic()` laps."""

    def __init__(self):
        self.start = self.last = time.monotonic()
        self.seconds = {}

    def lap(self, stage: str) -> None:
        """Charge the time since the previous lap to `stage`."""
        now = time.monotonic()
        self.seconds[stage] = self.seconds.get(stage, 0.0) + now - self.last
        self.last = now

    def manifest(self) -> dict:
        """`time_<stage>_s` per stage, then the run's `duration_s`."""
        entries = {f"time_{stage}_s": f"{s:.3f}" for stage, s in self.seconds.items()}
        entries["duration_s"] = f"{time.monotonic() - self.start:.3f}"
        return entries


def cmd_simulate(args) -> int:
    try:
        spec = PatternSpec(
            pattern_id=args.pattern,
            signal_divisor=args.divisor,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    inst = generate(spec)
    out = Path(args.out)
    try:
        save_instance(inst, out)
    except OSError as exc:
        return _cannot_write(exc, out)
    print(f"pattern {args.pattern} divisor {args.divisor:g} seed {args.seed}: SNR = {inst.snr:.3f}")
    print(f"wrote {out}/data.tsv, truth.tsv, mask.tsv, meta.txt")
    return EXIT_OK


def cmd_decompose(args) -> int:
    stages = _Stages()
    try:
        D = read_tsv(args.input)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    stages.lap("read")
    try:
        alpha, beta, T, resolved = resolve_params(D, args.alpha, args.beta, args.threshold)
        config = SolverConfig(
            alpha=alpha,
            beta=beta,
            max_iterations=args.max_iter,
            rel_tolerance=args.tol,
            detection_threshold=T,
        )
    except (DegenerateInputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    out = Path(args.out)
    try:  # an unwritable --out fails before the solve, not after it
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _cannot_write(exc, out)
    result = solve(D, config)
    stages.lap("solve")
    manifest = dict(
        subcommand="decompose",
        input=args.input,
        **resolved,
        max_iterations=config.max_iterations,
        rel_tolerance=config.rel_tolerance,
        iterations_used=result.iterations_used,
        converged=result.converged,
        rank_of_X=result.rank_of_X,
        nnz_of_E=result.nnz_of_E,
    )
    try:
        write_tsv(result.X_hat, out / "X.tsv")
        write_tsv(result.E_hat, out / "E.tsv")
        with open(out / "trace.tsv", "w") as fh:
            fh.write("iteration\tobjective\n")
            for i, f in enumerate(result.objective_trace):
                fh.write(f"{i}\t{f!r}\n")
        stages.lap("write")
        _write_manifest(out / "manifest.txt", manifest | stages.manifest())
    except OSError as exc:
        return _cannot_write(exc, out)
    print(
        f"iterations {result.iterations_used}, converged {result.converged}, "
        f"rank(X) {result.rank_of_X}, nnz(E) {result.nnz_of_E}"
    )
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_evaluate(args) -> int:
    try:  # bad flag values fail before --out is touched
        grid = benchmark_grid(args.seed) if args.benchmark else None
        if args.threshold is not None and not args.threshold >= 0:  # NaN fails too
            raise ValueError(f"threshold must be >= 0, got {args.threshold!r}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.out:
        try:  # an unwritable --out fails before the work, not after it
            open(args.out, "w").close()
        except OSError as exc:
            return _cannot_write(exc, args.out)
    if args.benchmark:
        rows = benchmark(grid, args.seeds)
        if args.out:
            write_benchmark_tsv(rows, args.out)
        for r in rows:
            print(
                f"pattern {r.pattern_id} divisor {r.divisor:g}: SNR {r.snr_mean:.2f} "
                f"P {r.precision_mean:.2f} R {r.recall_mean:.2f} F1 {r.f1_mean:.3f}"
            )
        return EXIT_OK

    if args.truth is None:
        print("error: --truth is required unless --benchmark is given", file=sys.stderr)
        return EXIT_INPUT
    try:
        truth = read_tsv(args.truth).values.astype(bool)
        if args.mask is not None:
            pred = read_tsv(args.mask).values.astype(bool)
        elif args.x is not None and args.e is not None:
            X = read_tsv(args.x)
            E = read_tsv(args.e)
            if args.threshold is not None:
                T = args.threshold
            elif args.input is not None:
                # the noise scale lives in the raw data, not in X or E
                T = auto_threshold(estimate_sigma(read_tsv(args.input).values))
            else:
                print(
                    "error: give --threshold (e.g. from the decompose manifest) "
                    "or --input to derive it from the data",
                    file=sys.stderr,
                )
                return EXIT_INPUT
            pred = (np.abs(X.values) > T) | (np.abs(E.values) > T)
        else:
            print("error: give either --mask or both --x and --e", file=sys.stderr)
            return EXIT_INPUT
        report = score(pred, truth)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    line = (
        f"tp {report.tp}\tfp {report.fp}\tfn {report.fn}\ttn {report.tn}\t"
        f"precision {report.precision:.4f}\trecall {report.recall:.4f}\tf1 {report.f1:.4f}"
    )
    print(line)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("tp\tfp\tfn\ttn\tprecision\trecall\tf1\tdegenerate\n")
            fh.write(
                f"{report.tp}\t{report.fp}\t{report.fn}\t{report.tn}\t"
                f"{report.precision:.6f}\t{report.recall:.6f}\t{report.f1:.6f}\t"
                f"{int(report.degenerate)}\n"
            )
    return EXIT_OK


def cmd_analyze(args) -> int:
    stages = _Stages()
    try:
        entries = read_manifest(args.manifest)
        studies = []
        for name, path in entries:
            if not Path(path).exists():
                print(f"error: study {name}: missing file {path}", file=sys.stderr)
                return EXIT_INPUT
            studies.append(parse_study(path, name))
        stages.lap("parse")
        panel = align(studies, args.min_coverage)
    except (OSError, SumstatsParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    del studies  # the parsed records are a run's largest objects; the panel holds what is used
    stages.lap("align")

    out = Path(args.out)
    try:  # an unwritable --out fails before the solve, not after it
        out.mkdir(parents=True, exist_ok=True)
        write_panel(panel, out / "z.tsv", out / "imputed_mask.tsv")
    except OSError as exc:
        return _cannot_write(exc, out)
    stages.lap("write")

    try:
        alpha, beta, T, resolved = resolve_params(
            panel.z_matrix, args.alpha, args.beta, args.threshold
        )
        config = SolverConfig(alpha=alpha, beta=beta, detection_threshold=T)
    except (DegenerateInputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    result = solve(panel.z_matrix, config)
    stages.lap("solve")
    r = min(args.embed_rank, result.rank_of_X)
    try:
        write_tsv(result.X_hat, out / "X.tsv")
        write_tsv(result.E_hat, out / "E.tsv")
        stages.lap("write")
        if r >= 1:
            write_embedding_tsv(embed_studies(result.X_hat, r), out / "embedding.tsv")
        else:
            print("note: recovered low-rank component is zero; no embedding written")
        n_shared, n_specific = write_snp_report(
            result, out / "shared.tsv", out / "specific.tsv", T
        )
        stages.lap("report")
        manifest = dict(
            subcommand="analyze",
            manifest=args.manifest,
            n_studies=len(panel.study_names),
            n_snps=len(panel.snp_ids),
            min_coverage=args.min_coverage,
            n_imputed=int(panel.imputed_mask.sum()),
            n_clamped=panel.n_clamped,
            embed_rank=r,
            **resolved,
            iterations_used=result.iterations_used,
            converged=result.converged,
            rank_of_X=result.rank_of_X,
            nnz_of_E=result.nnz_of_E,
            n_shared_rows=n_shared,
            n_specific_entries=n_specific,
            **stages.manifest(),
        )
        _write_manifest(out / "manifest.txt", manifest)
    except OSError as exc:
        return _cannot_write(exc, out)
    print(
        f"{len(panel.snp_ids)} SNPs x {len(panel.study_names)} studies; "
        f"rank(X) {result.rank_of_X}, {n_shared} shared rows, "
        f"{n_specific} specific entries; {manifest['duration_s']}s"
    )
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrsd",
        description="Low-rank + sparse decomposition of association summary statistics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic benchmark instance")
    p_sim.add_argument("--pattern", type=int, choices=(1, 2, 3, 4), required=True)
    p_sim.add_argument("--divisor", type=float, default=1.0)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", default="instance")
    p_sim.set_defaults(func=cmd_simulate)

    p_dec = sub.add_parser("decompose", help="decompose a matrix into X + E")
    p_dec.add_argument("--input", required=True)
    p_dec.add_argument("--alpha", type=float, default=None)
    p_dec.add_argument("--beta", type=float, default=None)
    p_dec.add_argument("--threshold", type=float, default=None)
    p_dec.add_argument("--tol", type=float, default=1e-7)
    p_dec.add_argument("--max-iter", type=int, default=500)
    p_dec.add_argument("--out", default="decomposition")
    p_dec.set_defaults(func=cmd_decompose)

    p_eval = sub.add_parser("evaluate", help="score detections against ground truth")
    p_eval.add_argument("--x")
    p_eval.add_argument("--e")
    p_eval.add_argument("--mask")
    p_eval.add_argument("--truth")
    p_eval.add_argument("--input", default=None,
                        help="raw data matrix, used to auto-derive the threshold")
    p_eval.add_argument("--threshold", type=float, default=None)
    p_eval.add_argument("--benchmark", action="store_true",
                        help="run the full 4-pattern x 3-divisor benchmark")
    p_eval.add_argument("--seeds", type=_positive_int, default=20)
    p_eval.add_argument("--seed", type=int, default=0, help="first seed of the sweep")
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(func=cmd_evaluate)

    p_an = sub.add_parser("analyze", help="end-to-end summary-statistics analysis")
    p_an.add_argument("--manifest", required=True)
    p_an.add_argument("--min-coverage", type=int, required=True)
    p_an.add_argument("--embed-rank", type=_positive_int, default=3)
    p_an.add_argument("--alpha", type=float, default=None)
    p_an.add_argument("--beta", type=float, default=None)
    p_an.add_argument("--threshold", type=float, default=None)
    p_an.add_argument("--out", default="analysis")
    p_an.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
