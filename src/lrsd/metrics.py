"""Detection scoring (precision/recall/F1) and the simulation benchmark."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .matrix import _same_shape
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
    _same_shape(("predicted", pred), ("truth", true))
    tp, n_pred, n_true = (int(np.count_nonzero(a)) for a in (pred & true, pred, true))
    fp, fn = n_pred - tp, n_true - tp
    tn = pred.size - n_pred - fn

    degenerate = False
    if n_pred > 0:
        precision = tp / n_pred
    else:
        precision, degenerate = 0.0, True
    if n_true > 0:
        recall = tp / n_true
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
        stats = {}
        for name in ("precision", "recall", "f1"):
            xs = np.array([getattr(r, name) for r in reports])
            stats[f"{name}_mean"] = float(xs.mean())
            stats[f"{name}_std"] = float(xs.std(ddof=1)) if len(xs) > 1 else 0.0
        rows.append(BenchmarkRow(pattern_id=spec.pattern_id, divisor=spec.signal_divisor,
                                 snr_mean=float(np.mean(snrs)), **stats, n_seeds=n_seeds))
    return rows


def write_benchmark_tsv(rows: list[BenchmarkRow], path) -> None:
    """One line per row: pattern, divisor, then every `_mean` and `_std`
    field of `BenchmarkRow` in its order, to four decimals."""
    stats = [f.name for f in fields(BenchmarkRow) if f.name.endswith(("_mean", "_std"))]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(["pattern", "divisor", *stats]) + "\n")
        for r in rows:
            values = [f"{getattr(r, name):.4f}" for name in stats]
            fh.write("\t".join([str(r.pattern_id), f"{r.divisor:g}", *values]) + "\n")
