"""Seeded input generators, one per workload.

Each generator writes into a fresh directory the files the program reads
(the only thing the program sees) plus `truth_*.npy`, the planted signal
that the benchmark scores detections against. The same seed gives
byte-identical files; `digest` fingerprints them, so that runs on two
commits can be shown to measure the same inputs.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from scipy import special

N_STUDIES = 32
PANEL_SNPS = 10_000        # analyze_panel SNP universe
ZSCORE_ROWS = 20_000       # decompose_tsv rows; both give runs of about 3 s
PANEL_COVERAGE = 0.95      # chance that a study reports a given SNP
MIN_COVERAGE = 16
TALL_ROWS = 466_423        # the paper's real-data shape: 466,423 SNPs x 32 studies
GRID_PATTERNS = (1, 2, 3, 4)
GRID_DIVISORS = (1.0, 1.2, 1.5)
GRID_SEEDS_PER_CELL = 20   # as in tests/test_acceptance.py


def _planted(rng, n: int, p: int, block_rows: int, block_cols: int, spike_frac: float):
    """Rank-1 shared block on random rows/columns plus sparse study-specific spikes."""
    rows = rng.choice(n, size=block_rows, replace=False)
    cols = rng.choice(p, size=block_cols, replace=False)
    shift = np.zeros((n, p))
    shift[np.ix_(rows, cols)] = 3.0 * np.outer(rng.uniform(0.7, 1.3, block_rows),
                                               rng.uniform(0.7, 1.3, block_cols))
    spikes = rng.random((n, p)) < spike_frac
    shift[spikes] += 8.0
    return shift, shift != 0


def _save_truth(dest: Path, **arrays) -> None:
    for name, a in arrays.items():
        np.save(dest / f"truth_{name}.npy", a)


def load_truth(dest: Path) -> dict[str, np.ndarray]:
    return {p.stem[len("truth_"):]: np.load(p) for p in dest.glob("truth_*.npy")}


def make_panel(dest: Path, seed: int, n: int = PANEL_SNPS) -> None:
    """32 study TSVs (`snp`, `p`), each covering ~95% of an n-SNP universe.

    A few p-values are written below the program's clamp (1e-300) so the
    clamping path runs.
    """
    rng = np.random.default_rng([seed, 1])
    ids = np.array([f"rs{v}" for v in rng.choice(10 * n, size=n, replace=False) + 1000])
    covered = rng.random((n, N_STUDIES)) < PANEL_COVERAGE
    shift, signal = _planted(rng, n, N_STUDIES, n // 50, 2 * N_STUDIES // 3, 1e-3)
    z = shift + rng.normal(size=(n, N_STUDIES))
    pvals = 2.0 * special.ndtr(-np.abs(z))
    tiny = rng.choice(n * N_STUDIES, size=4, replace=False)
    covered.flat[tiny] = True
    pvals.flat[tiny] = 1e-310

    lines = []
    for j in range(N_STUDIES):
        name = f"study{j + 1:02d}"
        keep = np.flatnonzero(covered[:, j])
        rows = zip(ids[keep].tolist(), pvals[keep, j].tolist())
        body = "".join(f"{s}\t{v:.6g}\n" for s, v in rows)
        (dest / f"{name}.tsv").write_text("snp\tp\n" + body)
        lines.append(f"{name}\t{name}.tsv")
    (dest / "studies.txt").write_text("\n".join(lines) + "\n")
    _save_truth(dest, ids=ids, covered=covered, p=pvals, signal=signal & covered)


def make_zscore_tsv(dest: Path, seed: int, n: int = ZSCORE_ROWS) -> None:
    """A labelled n x 32 z-score TSV (`id` column, one column per study)."""
    rng = np.random.default_rng([seed, 2])
    ids = [f"rs{v}" for v in rng.choice(10 * n, size=n, replace=False) + 1000]
    shift, signal = _planted(rng, n, N_STUDIES, n // 50, N_STUDIES // 3, 1e-3)
    z = np.abs(rng.normal(size=(n, N_STUDIES))) + shift
    head = "\t".join(["id"] + [f"study{j + 1:02d}" for j in range(N_STUDIES)])
    fmt = "%s" + "\t%.6g" * N_STUDIES + "\n"
    body = "".join(fmt % (s, *row) for s, row in zip(ids, z.tolist()))
    (dest / "z.tsv").write_text(head + "\n" + body)
    _save_truth(dest, signal=signal)


def make_tall(dest: Path, seed: int, n: int = TALL_ROWS) -> None:
    """The scripts/run_scale_probe.py matrix at n x 32, saved as D.npy."""
    rng = np.random.default_rng(seed)
    Z = np.abs(rng.normal(size=(n, N_STUDIES)))
    Z[:2000, : N_STUDIES // 3] += 3.0
    spikes = rng.choice(Z.size, size=min(5000, Z.size // 100), replace=False)
    Z.reshape(-1)[spikes] += 8.0
    np.save(dest / "D.npy", Z)
    _save_truth(dest, block=np.array([2000, N_STUDIES // 3]), spikes=spikes)


def grid_cells(seed: int) -> list[dict]:
    """The 12-cell benchmark grid; cell seeds are consecutive from seed*20."""
    first = seed * GRID_SEEDS_PER_CELL
    return [
        dict(pattern=pid, divisor=div, seeds=list(range(first, first + GRID_SEEDS_PER_CELL)))
        for pid in GRID_PATTERNS
        for div in GRID_DIVISORS
    ]


def make_grid(dest: Path, seed: int) -> None:
    """grid.json for the child, and every instance generated up front.

    The instances are produced by the program's own `simulate.generate`,
    which the child calls again; their data are kept as truth so the
    benchmark checks the child's solutions against the same matrices.
    """
    # imported here: src/ joins sys.path only once run.py has started
    from lrsd.simulate import PatternSpec, generate

    cells = grid_cells(seed)
    data, masks = [], []
    for cell in cells:
        for s in cell["seeds"]:
            inst = generate(PatternSpec(pattern_id=cell["pattern"],
                                        signal_divisor=cell["divisor"], seed=s))
            data.append(inst.data.values)
            masks.append(inst.truth_mask)
    (dest / "grid.json").write_text(json.dumps(cells))
    _save_truth(dest, data=np.stack(data), signal=np.stack(masks))


MAKERS = {
    "analyze_panel": make_panel,
    "decompose_tsv": make_zscore_tsv,
    "solve_tall": make_tall,
    "sim_grid": make_grid,
}


def digest(dest: Path) -> str:
    """sha256 over every generated file, names included, in name order."""
    h = hashlib.sha256()
    for path in sorted(dest.iterdir()):
        h.update(path.name.encode() + b"\0")
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()
