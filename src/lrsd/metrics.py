"""Detection scoring (precision/recall/F1) and the simulation benchmark."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .simulate import PatternSpec, generate
from .solver import auto_config, detect, solve


@dataclass(frozen=True)
class DetectionReport:
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    f1: float
    degenerate: bool = False   # a denominator was zero; affected metrics set to 0


def score(predicted: np.ndarray, truth: np.ndarray) -> DetectionReport:
    """Entrywise confusion counts and P/R/F1 of a mask against ground truth."""
    pred = np.asarray(predicted, dtype=bool)
    true = np.asarray(truth, dtype=bool)
    if pred.shape != true.shape:
        raise ValueError(f"mask shapes differ: {pred.shape} vs {true.shape}")
    tp = int((pred & true).sum())
    fp = int((pred & ~true).sum())
    fn = int((~pred & true).sum())
    tn = int((~pred & ~true).sum())

    degenerate = False
    if tp + fp > 0:
        precision = tp / (tp + fp)
    else:
        precision, degenerate = 0.0, True
    if tp + fn > 0:
        recall = tp / (tp + fn)
    else:
        recall, degenerate = 0.0, True
    if precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1, degenerate = 0.0, True
    return DetectionReport(tp, fp, fn, tn, precision, recall, f1, degenerate)


@dataclass(frozen=True)
class BenchmarkRow:
    pattern_id: int
    divisor: float
    snr_mean: float
    precision_mean: float
    precision_std: float
    recall_mean: float
    recall_std: float
    f1_mean: float
    f1_std: float
    n_seeds: int


def benchmark_grid(seed: int = 0) -> list[PatternSpec]:
    """The 12 cells of the simulation benchmark: patterns 1-4 x divisors 1.0, 1.2, 1.5."""
    return [
        PatternSpec(pattern_id=pid, signal_divisor=div, seed=seed)
        for pid in (1, 2, 3, 4)
        for div in (1.0, 1.2, 1.5)
    ]


def run_cell(spec: PatternSpec, n_seeds: int):
    """Generate/solve/detect/score one (pattern, divisor) cell over seeds."""
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    reports, snrs = [], []
    for i in range(n_seeds):
        inst = generate(replace(spec, seed=spec.seed + i))
        cfg = auto_config(inst.data)
        result = solve(inst.data, cfg)
        reports.append(score(detect(result, cfg.detection_threshold), inst.truth_mask))
        snrs.append(inst.snr)
    return reports, snrs


def benchmark(patterns: list[PatternSpec], n_seeds: int) -> list[BenchmarkRow]:
    """Mean/std of P/R/F1 per pattern spec, averaged over consecutive seeds."""
    rows = []
    for spec in patterns:
        reports, snrs = run_cell(spec, n_seeds)
        ps = np.array([r.precision for r in reports])
        rs = np.array([r.recall for r in reports])
        fs = np.array([r.f1 for r in reports])
        rows.append(
            BenchmarkRow(
                pattern_id=spec.pattern_id,
                divisor=spec.signal_divisor,
                snr_mean=float(np.mean(snrs)),
                precision_mean=float(ps.mean()),
                precision_std=float(ps.std(ddof=1)) if len(ps) > 1 else 0.0,
                recall_mean=float(rs.mean()),
                recall_std=float(rs.std(ddof=1)) if len(rs) > 1 else 0.0,
                f1_mean=float(fs.mean()),
                f1_std=float(fs.std(ddof=1)) if len(fs) > 1 else 0.0,
                n_seeds=n_seeds,
            )
        )
    return rows


BENCH_COLUMNS = (
    "pattern",
    "divisor",
    "snr_mean",
    "precision_mean",
    "precision_std",
    "recall_mean",
    "recall_std",
    "f1_mean",
    "f1_std",
)


def write_benchmark_tsv(rows: list[BenchmarkRow], path) -> None:
    with open(path, "w") as fh:
        fh.write("\t".join(BENCH_COLUMNS) + "\n")
        for r in rows:
            # every column after pattern and divisor is the BenchmarkRow field of that name
            stats = [f"{getattr(r, c):.4f}" for c in BENCH_COLUMNS[2:]]
            fh.write("\t".join([str(r.pattern_id), f"{r.divisor:g}", *stats]) + "\n")
