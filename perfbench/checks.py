"""Output checks for every timed run, read from the files the run wrote.

Each `check_*` returns the run's optimality residual over alpha (largest
over its solves) and its detection F1 values, or raises `CheckFailed`
naming the first check that failed. They run after the run's process has
exited, so none of their cost is timed.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from lrsd.solver import optimality_residual
from scipy import special

from inputs import GRID_SEEDS_PER_CELL, MIN_COVERAGE, N_STUDIES, grid_cells

RESIDUAL_TOL = 1e-2   # residual/alpha; the seed code stays below 5e-4 on every workload
F1_TOL = 0.08         # as tests/test_acceptance.py allows
P_CLAMP = 1e-300      # the program's documented p-value floor
Z_TOL = 1e-5          # p-values are written with 6 significant digits
# published F1 targets per (pattern, divisor), copied from tests/test_acceptance.py
F1_TARGETS = {
    1: {1.0: 0.83, 1.2: 0.78, 1.5: 0.70},
    2: {1.0: 0.85, 1.2: 0.80, 1.5: 0.71},
    3: {1.0: 0.85, 1.2: 0.79, 1.5: 0.76},
    4: {1.0: 0.82, 1.2: 0.77, 1.5: 0.71},
}


class CheckFailed(Exception):
    pass


def require(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def f1_score(pred: np.ndarray, truth: np.ndarray) -> float:
    tp = int((pred & truth).sum())
    miss = int((pred != truth).sum())
    return 2 * tp / (2 * tp + miss) if tp else 0.0


def read_labelled(path: Path) -> tuple[list[str], np.ndarray]:
    """(row labels, values) of a labelled TSV with a header line."""
    with open(path) as fh:
        fh.readline()
        rows = [line.rstrip("\n").split("\t") for line in fh]
    return [r[0] for r in rows], np.array([r[1:] for r in rows], dtype=float)


def read_manifest(path: Path) -> dict[str, str]:
    entries = {}
    with open(path) as fh:
        for line in fh:
            key, _, value = line.rstrip("\n").partition("=")
            entries[key] = value.split(" ", 1)[0]
    return entries


def residual_rel(D, X, E, alpha: float, beta: float) -> float:
    rel = optimality_residual(D, X, E, alpha, beta) / alpha
    require(rel < RESIDUAL_TOL, f"optimality residual/alpha {rel:.3g} >= {RESIDUAL_TOL}")
    return rel


def _components(out: Path, labels: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """X.tsv and E.tsv, checked to be n x 32 with the expected labels."""
    mats = []
    for name in ("X.tsv", "E.tsv"):
        rows, values = read_labelled(out / name)
        require(values.shape == (len(labels), N_STUDIES),
                f"{name} is {values.shape}, expected {(len(labels), N_STUDIES)}")
        require(rows == labels, f"{name} row labels differ from the input's")
        mats.append(values)
    return mats[0], mats[1]


def _cli_manifest(out: Path) -> tuple[float, float, float]:
    m = read_manifest(out / "manifest.txt")
    require(m.get("converged") == "True", f"manifest converged={m.get('converged')}")
    return float(m["alpha"]), float(m["beta"]), float(m["threshold"])


def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


class PanelExpectation:
    """What analyze must produce from the generated studies, in its row order."""

    def __init__(self, truth: dict[str, np.ndarray]):
        kept = truth["covered"].sum(axis=1) >= MIN_COVERAGE
        order = np.argsort(truth["ids"][kept])
        self.ids = truth["ids"][kept][order].tolist()
        self.covered = truth["covered"][kept][order]
        self.signal = truth["signal"][kept][order]
        p = np.maximum(truth["p"][kept][order], P_CLAMP)
        self.z = np.where(self.covered, -special.ndtri(p / 2.0), 0.0)


def check_analyze(out: Path, ctx: dict) -> tuple[float, list[float]]:
    if "panel" not in ctx:
        ctx["panel"] = PanelExpectation(ctx["truth"])
    exp = ctx["panel"]
    alpha, beta, T = _cli_manifest(out)
    rows, z = read_labelled(out / "z.tsv")
    require(rows == exp.ids and z.shape == exp.z.shape, "z.tsv rows differ from the covered SNPs")
    require(np.abs(z - exp.z).max() <= Z_TOL, "z.tsv differs from -ndtri(p/2) of the inputs")
    _, imputed = read_labelled(out / "imputed_mask.tsv")
    require(np.array_equal(imputed != 0, ~exp.covered), "imputed_mask.tsv differs from coverage")
    X, E = _components(out, exp.ids)
    rel = residual_rel(z, X, E, alpha, beta)
    absX, absE = np.abs(X), np.abs(E)
    require(_count_lines(out / "shared.tsv") == int((absX.max(axis=1) > T).sum()),
            "shared.tsv row count differs from rows with max|X| > T")
    require(_count_lines(out / "specific.tsv") == int((absE > T).sum()),
            "specific.tsv row count differs from entries with |E| > T")
    return rel, [f1_score((absX > T) | (absE > T), exp.signal)]


def check_decompose(out: Path, ctx: dict) -> tuple[float, list[float]]:
    if "D" not in ctx:
        ctx["ids"], ctx["D"] = read_labelled(ctx["inputs"] / "z.tsv")
    alpha, beta, T = _cli_manifest(out)
    X, E = _components(out, ctx["ids"])
    rel = residual_rel(ctx["D"], X, E, alpha, beta)
    return rel, [f1_score((np.abs(X) > T) | (np.abs(E) > T), ctx["truth"]["signal"])]


def _library_outputs(out: Path, rec: dict, shape) -> tuple[np.ndarray, np.ndarray]:
    require(all(rec["converged"]), "a solve hit its iteration cap")
    X, E = np.load(out / "X.npy"), np.load(out / "E.npy")
    require(X.shape == shape and E.shape == shape, f"X/E are {X.shape}/{E.shape}, expected {shape}")
    return X, E


def check_tall(out: Path, ctx: dict, rec: dict) -> tuple[float, list[float]]:
    if "D" not in ctx:
        ctx["D"] = np.load(ctx["inputs"] / "D.npy")
        rows, cols = ctx["truth"]["block"]
        signal = np.zeros(ctx["D"].shape, dtype=bool)
        signal[:rows, :cols] = True
        signal.flat[ctx["truth"]["spikes"]] = True
        ctx["signal"] = signal
    X, E = _library_outputs(out, rec, ctx["D"].shape)
    alpha, beta, T = rec["params"][0]
    mask = np.load(out / "mask.npy")
    pred = (np.abs(X) > T) | (np.abs(E) > T)
    require(np.array_equal(mask, pred), "detect() mask differs from |X| > T or |E| > T")
    rel = residual_rel(ctx["D"], X, E, alpha, beta)
    return rel, [f1_score(pred, ctx["signal"])]


def check_grid(out: Path, ctx: dict, rec: dict) -> tuple[float, list[float]]:
    data, signal = ctx["truth"]["data"], ctx["truth"]["signal"]
    X, E = _library_outputs(out, rec, data.shape)
    f1s = [f1_score((np.abs(x) > T) | (np.abs(e) > T), s)
           for x, e, s, (_, _, T) in zip(X, E, signal, rec["params"])]
    require(np.allclose(f1s, rec["f1"], rtol=0, atol=1e-12), "score() F1 differs from the recount")
    per_cell = np.reshape(f1s, (-1, GRID_SEEDS_PER_CELL)).mean(axis=1)
    for cell, f1 in zip(grid_cells(ctx["seed"]), per_cell):
        target = F1_TARGETS[cell["pattern"]][cell["divisor"]]
        require(abs(f1 - target) <= F1_TOL,
                f"pattern {cell['pattern']} divisor {cell['divisor']}: mean F1 {f1:.3f}, "
                f"published {target} +/- {F1_TOL}")
    rels = [residual_rel(d, x, e, alpha, beta)
            for d, x, e, (alpha, beta, _) in zip(data, X, E, rec["params"])]
    return max(rels), f1s


def check(workload: str, rc: int, out: Path, ctx: dict, rec: dict) -> tuple[float, list[float]]:
    """Check one run's outputs; raises CheckFailed."""
    require(rc == 0, f"exit code {rc}")
    if workload == "analyze_panel":
        return check_analyze(out, ctx)
    if workload == "decompose_tsv":
        return check_decompose(out, ctx)
    if workload == "solve_tall":
        return check_tall(out, ctx, rec)
    return check_grid(out, ctx, rec)
