"""Command-line interface: simulate, decompose, evaluate, analyze.

Exit codes: 0 success, 2 usage or input error, 3 solver hit the iteration
cap (outputs are still written).

A command refuses bad input, a bad flag value or an unwritable output by
raising `_Refusal` (through `_input` and `_output`); `main` alone turns a
refusal into one `error:` line on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .matrix import read_tsv, write_tsv
from .metrics import benchmark, benchmark_grid, score, write_benchmark_tsv
from .reporting import embed_studies, write_embedding_tsv, write_snp_report
from .simulate import PatternSpec, generate, save_instance
from .solver import SolverConfig, _check_param, _detect, resolve_params, solve
from .sumstats import _check_coverage, align, parse_study, read_manifest, write_panel

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3


class _Refusal(Exception):
    """Bad input, a bad flag value or an unwritable output; `main` prints it and exits 2."""


@contextmanager
def _input():
    """Refuse with the message of an OSError or ValueError raised inside."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise _Refusal(str(exc)) from exc


@contextmanager
def _output(path):
    """Refuse an OSError raised inside as `cannot write PATH: REASON`."""
    try:
        yield
    except OSError as exc:
        raise _Refusal(f"cannot write {exc.filename or path}: {exc.strerror}") from exc


class _Stages:
    """A solving command's run: wall time per stage, summed over
    `time.monotonic()` laps, and the one manifest written from it."""

    def __init__(self):
        self.start = self.last = time.monotonic()
        self.seconds = {}

    def lap(self, stage: str) -> None:
        """Charge the time since the previous lap to `stage`."""
        now = time.monotonic()
        self.seconds[stage] = self.seconds.get(stage, 0.0) + now - self.last
        self.last = now

    def record(self, out: Path, keys: dict, result, **counts) -> int:
        """Write OUT/manifest.txt and return the exit code, 0 or 3 at the iteration cap.

        The lines are tool_version, the command's `keys`, the solve's outcome,
        the command's `counts`, this process's peak resident set so far in MB
        (ru_maxrss is in KB on Linux), each `time_<stage>_s`, then `duration_s`.
        """
        self.duration_s = f"{time.monotonic() - self.start:.3f}"
        entries = dict(
            tool_version=__version__,
            **keys,
            iterations_used=result.iterations_used,
            converged=result.converged,
            rank_of_X=result.rank_of_X,
            nnz_of_E=result.nnz_of_E,
            **counts,
            peak_rss_mb=f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f}",
            **{f"time_{stage}_s": f"{s:.3f}" for stage, s in self.seconds.items()},
            duration_s=self.duration_s,
        )
        with _output(out), open(out / "manifest.txt", "w") as fh:
            fh.writelines(f"{key}={value}\n" for key, value in entries.items())
        return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def _configure(D, args, **limits) -> tuple[SolverConfig, dict]:
    """Resolve alpha, beta and T from the flags or the data, and check them;
    bad values are refused before --out is touched."""
    with _input():
        alpha, beta, T, resolved = resolve_params(D, args.alpha, args.beta, args.threshold)
        return SolverConfig(alpha=alpha, beta=beta, detection_threshold=T, **limits), resolved


def _solve_and_write(D, config: SolverConfig, out: Path, stages: _Stages):
    """Solve, charge it to the `solve` stage, then write X.tsv and E.tsv."""
    result = solve(D, config)
    stages.lap("solve")
    with _output(out):
        write_tsv(result.X_hat, out / "X.tsv")
        write_tsv(result.E_hat, out / "E.tsv")
    return result


def cmd_simulate(args) -> int:
    with _input():
        spec = PatternSpec(
            pattern_id=args.pattern,
            signal_divisor=args.divisor,
            seed=args.seed,
        )
    inst = generate(spec)
    out = Path(args.out)
    with _output(out):
        save_instance(inst, out)
    print(f"pattern {args.pattern} divisor {args.divisor:g} seed {args.seed}: SNR = {inst.snr:.3f}")
    print(f"wrote {out}/data.tsv, truth.tsv, mask.tsv, meta.txt")
    return EXIT_OK


def cmd_decompose(args) -> int:
    stages = _Stages()
    with _input():
        D = read_tsv(args.input)
    stages.lap("read")
    config, resolved = _configure(D, args, max_iterations=args.max_iter, rel_tolerance=args.tol)

    out = Path(args.out)
    with _output(out):  # an unwritable --out fails before the solve, not after it
        out.mkdir(parents=True, exist_ok=True)
    result = _solve_and_write(D, config, out, stages)
    with _output(out), open(out / "trace.tsv", "w") as fh:
        fh.write("iteration\tobjective\n")
        for i, f in enumerate(result.objective_trace):
            fh.write(f"{i}\t{f!r}\n")
    stages.lap("write")
    code = stages.record(out, dict(
        subcommand="decompose",
        input=args.input,
        **resolved,
        max_iterations=config.max_iterations,
        rel_tolerance=config.rel_tolerance,
    ), result)
    print(
        f"iterations {result.iterations_used}, converged {result.converged}, "
        f"rank(X) {result.rank_of_X}, nnz(E) {result.nnz_of_E}"
    )
    return code


def _read_mask(path):
    """A matrix TSV of 0/1 entries as a boolean mask; any other entry is refused."""
    values = read_tsv(path).values
    bad = values[(values != 0) & (values != 1)]
    if bad.size:
        raise ValueError(f"{path}: mask entries must be 0 or 1, got {float(bad[0])!r}")
    return values == 1


def cmd_evaluate(args) -> int:
    with _input():  # bad flag values fail before --out is touched
        grid = benchmark_grid(args.seed) if args.benchmark else None
        if args.threshold is not None:
            _check_param("threshold", args.threshold)
    if args.benchmark:
        if args.out:
            with _output(args.out):  # the grid takes minutes: an unwritable --out fails first
                open(args.out, "w").close()
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
        raise _Refusal("--truth is required unless --benchmark is given")
    with _input():
        truth = _read_mask(args.truth)
        if args.mask is not None:
            pred = _read_mask(args.mask)
        elif args.x is not None and args.e is not None:
            X = read_tsv(args.x)
            E = read_tsv(args.e)
            if X.shape != E.shape:
                raise ValueError(f"{args.x} is {X.shape[0]} x {X.shape[1]} but {args.e} "
                                 f"is {E.shape[0]} x {E.shape[1]}")
            T = args.threshold
            if T is None:
                if args.input is None:
                    raise _Refusal("give --threshold (e.g. from the decompose manifest) "
                                   "or --input to derive it from the data")
                # the noise scale lives in the raw data, not in X or E
                D = read_tsv(args.input)
                if D.shape != X.shape:
                    raise ValueError(f"{args.input} is {D.shape[0]} x {D.shape[1]} but {args.x} "
                                     f"is {X.shape[0]} x {X.shape[1]}")
                T = resolve_params(D)[2]
            pred = _detect(X.values, E.values, T)
        else:
            raise _Refusal("give either --mask or both --x and --e")
        report = score(pred, truth)
    if args.out:  # written only once the inputs are read and scored
        with _output(args.out), open(args.out, "w") as fh:
            fh.write("tp\tfp\tfn\ttn\tprecision\trecall\tf1\tdegenerate\n")
            fh.write(
                f"{report.tp}\t{report.fp}\t{report.fn}\t{report.tn}\t"
                f"{report.precision:.6f}\t{report.recall:.6f}\t{report.f1:.6f}\t"
                f"{int(report.degenerate)}\n"
            )
    print(
        f"tp {report.tp}\tfp {report.fp}\tfn {report.fn}\ttn {report.tn}\t"
        f"precision {report.precision:.4f}\trecall {report.recall:.4f}\tf1 {report.f1:.4f}"
    )
    return EXIT_OK


def cmd_analyze(args) -> int:
    # align's first call would import it inside the `align` stage time; other commands skip it
    from scipy import special  # noqa: F401

    stages = _Stages()
    with _input():
        entries = read_manifest(args.manifest)
        _check_coverage(args.min_coverage, len(entries))  # before any study is parsed
        for name, path in entries:
            if not Path(path).exists():
                raise _Refusal(f"study {name}: missing file {path}")
        studies = [parse_study(path, name) for name, path in entries]
        stages.lap("parse")
        panel = align(studies, args.min_coverage)
    del studies  # the parsed records are a run's largest objects; the panel holds what is used
    stages.lap("align")
    config, resolved = _configure(panel.z_matrix, args)
    stages.lap("solve")

    out = Path(args.out)
    with _output(out):  # an unwritable --out fails before the solve, not after it
        out.mkdir(parents=True, exist_ok=True)
        write_panel(panel, out / "z.tsv", out / "imputed_mask.tsv")
    stages.lap("write")
    result = _solve_and_write(panel.z_matrix, config, out, stages)
    stages.lap("write")
    r = min(args.embed_rank, result.rank_of_X)
    with _output(out):
        if r >= 1:
            write_embedding_tsv(embed_studies(result.X_hat, r), out / "embedding.tsv")
        else:
            print("note: recovered low-rank component is zero; no embedding written")
        n_shared, n_specific = write_snp_report(
            result, out / "shared.tsv", out / "specific.tsv", config.detection_threshold
        )
    stages.lap("report")
    code = stages.record(out, dict(
        subcommand="analyze",
        manifest=args.manifest,
        n_studies=len(panel.study_names),
        n_snps=len(panel.snp_ids),
        min_coverage=args.min_coverage,
        n_imputed=int(panel.imputed_mask.sum()),
        n_clamped=panel.n_clamped,
        embed_rank=r,
        **resolved,
    ), result, n_shared_rows=n_shared, n_specific_entries=n_specific)
    print(
        f"{len(panel.snp_ids)} SNPs x {len(panel.study_names)} studies; "
        f"rank(X) {result.rank_of_X}, {n_shared} shared rows, "
        f"{n_specific} specific entries; {stages.duration_s}s"
    )
    return code


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _add_parameter_flags(parser: argparse.ArgumentParser) -> None:
    """--alpha, --beta and --threshold: each taken from the data's rule when not given."""
    for flag in ("--alpha", "--beta", "--threshold"):
        parser.add_argument(flag, type=float, default=None)


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
    _add_parameter_flags(p_dec)
    p_dec.add_argument("--tol", type=float, default=SolverConfig.rel_tolerance)
    p_dec.add_argument("--max-iter", type=int, default=SolverConfig.max_iterations)
    p_dec.add_argument("--out", default="decomposition")
    p_dec.set_defaults(func=cmd_decompose)

    p_eval = sub.add_parser("evaluate", help="score detections against ground truth")
    p_eval.add_argument("--x")
    p_eval.add_argument("--e")
    p_eval.add_argument("--mask")
    p_eval.add_argument("--truth")
    p_eval.add_argument("--input", default=None,
                        help="raw data matrix of X's shape, used to auto-derive the threshold")
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
    _add_parameter_flags(p_an)
    p_an.add_argument("--out", default="analysis")
    p_an.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Refusal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
