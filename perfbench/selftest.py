#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs each workload once on small inputs (the tall matrix at 20,000 rows),
confirms that its outputs pass every check, then corrupts a copy of the
outputs in one way at a time and confirms that the check meant for that
corruption rejects it. Exits 0 when every corruption is caught.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

import run  # sets nothing up on import; gives the paths and the child launcher

sys.path.insert(0, str(run.ROOT / "src"))

from checks import CheckFailed, check  # noqa: E402
from inputs import (  # noqa: E402
    GRID_SEEDS_PER_CELL, load_truth, make_grid, make_panel, make_tall, make_zscore_tsv,
)

SEED = 7
SMALL = {
    "analyze_panel": lambda d: make_panel(d, SEED, n=2000),
    "decompose_tsv": lambda d: make_zscore_tsv(d, SEED, n=2000),
    "solve_tall": lambda d: make_tall(d, SEED, n=20_000),
    "sim_grid": lambda d: make_grid(d, SEED),
}


def edit_lines(path: Path, fn) -> None:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(fn(lines)))


def edit_tsv_values(path: Path, fn) -> None:
    """Apply fn to the numeric block of a labelled TSV and write it back exactly."""
    lines = path.read_text().splitlines()
    rows = [ln.split("\t") for ln in lines[1:]]
    values = fn(np.array([r[1:] for r in rows], dtype=float))
    body = ["\t".join([r[0]] + [repr(float(v)) for v in vals]) for r, vals in zip(rows, values)]
    path.write_text("\n".join([lines[0]] + body) + "\n")


def edit_npy(path: Path, fn) -> None:
    np.save(path, fn(np.load(path)))


def scaled(a):
    return a * 1.01


def first_entry(fn):
    """An edit that applies fn to the first entry of an array."""
    def edit(a):
        a = a.copy()
        a.flat[0] = fn(a.flat[0])
        return a
    return edit


def manifest_unconverged(out: Path) -> None:
    edit_lines(out / "manifest.txt",
               lambda ls: [ln.replace("converged=True", "converged=False") for ln in ls])


def zero_first_cell(out: Path, rec: dict) -> None:
    """Zero the first cell's solutions and make the child's F1s agree with them."""
    for name in ("X.npy", "E.npy"):
        def zero(a):
            a = a.copy()
            a[:GRID_SEEDS_PER_CELL] = 0.0
            return a
        edit_npy(out / name, zero)
    rec["f1"][:GRID_SEEDS_PER_CELL] = [0.0] * GRID_SEEDS_PER_CELL


def raise_detected_e(out: Path, rec: dict) -> None:
    """Add 0.5 to the first instance's E where |X| > T: detections stay, optimality goes."""
    T = rec["params"][0][2]
    first = np.zeros(len(rec["params"]), dtype=bool)
    first[0] = True
    detected = first[:, None, None] & (np.abs(np.load(out / "X.npy")) > T)
    edit_npy(out / "E.npy", lambda e: e + 0.5 * detected)


# name -> (corruption, words the failure message must contain). A corruption
# takes the output directory and the child record and may change either.
CLI_CASES = {
    "exit code 3": (None, "exit code"),
    "X.tsv missing its last row": (
        lambda out, rec: edit_lines(out / "X.tsv", lambda ls: ls[:-1]), "X.tsv is"),
    "E.tsv missing its last column": (
        lambda out, rec: edit_lines(out / "E.tsv", lambda ls: [ln.rstrip("\n").rsplit("\t", 1)[0]
                                                              + "\n" for ln in ls]), "E.tsv is"),
    "manifest converged=False": (lambda out, rec: manifest_unconverged(out), "converged"),
    "X.tsv scaled by 1.01": (
        lambda out, rec: edit_tsv_values(out / "X.tsv", scaled), "optimality residual"),
}
CASES = {
    "analyze_panel": {
        **CLI_CASES,
        "z.tsv entry shifted by 1e-3": (
            lambda out, rec: edit_tsv_values(out / "z.tsv", first_entry(lambda v: v + 1e-3)),
            "z.tsv differs"),
        "imputed_mask.tsv entry flipped": (
            lambda out, rec: edit_tsv_values(out / "imputed_mask.tsv",
                                             first_entry(lambda v: 1.0 - v)), "imputed_mask"),
        "shared.tsv missing a row": (
            lambda out, rec: edit_lines(out / "shared.tsv", lambda ls: ls[:-1]), "shared.tsv"),
        "specific.tsv missing a row": (
            lambda out, rec: edit_lines(out / "specific.tsv", lambda ls: ls[:-1]), "specific.tsv"),
    },
    "decompose_tsv": {
        **CLI_CASES,
        "X.tsv rows swapped": (
            lambda out, rec: edit_lines(out / "X.tsv", lambda ls: [ls[0], ls[2], ls[1], *ls[3:]]),
            "row labels"),
    },
    "solve_tall": {
        "exit code 3": (None, "exit code"),
        "converged=False": (lambda out, rec: rec.update(converged=[False]), "iteration cap"),
        "X.npy missing its last row": (
            lambda out, rec: edit_npy(out / "X.npy", lambda a: a[:-1]), "X/E are"),
        "detect mask entry flipped": (
            lambda out, rec: edit_npy(out / "mask.npy", first_entry(lambda v: not v)),
            "detect() mask"),
        "X.npy scaled by 1.01": (
            lambda out, rec: edit_npy(out / "X.npy", scaled), "optimality residual"),
    },
    "sim_grid": {
        "exit code 3": (None, "exit code"),
        "one converged=False": (lambda out, rec: rec["converged"].__setitem__(5, False),
                                "iteration cap"),
        "E.npy missing an instance": (
            lambda out, rec: edit_npy(out / "E.npy", lambda a: a[:-1]), "X/E are"),
        "score() F1 off by 0.01": (
            lambda out, rec: rec["f1"].__setitem__(3, rec["f1"][3] + 0.01), "score() F1"),
        "first cell's solutions zeroed": (zero_first_cell, "published"),
        "one E raised where already detected": (raise_detected_e, "optimality residual"),
    },
}


def main() -> int:
    caught = total = 0
    for workload, cases in CASES.items():
        work = run.OUT / f"selftest-{workload}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        inputs = work / "inputs"
        inputs.mkdir(parents=True)
        try:
            SMALL[workload](inputs)
            ctx = dict(inputs=inputs, seed=SEED, truth=load_truth(inputs))
            out = work / "run"
            result = run.spawn([workload, str(inputs), str(out), "0", "0"], out, 160)
            rec = json.loads((out / "child.json").read_text())
            check(workload, result["rc"], out, ctx, rec)
            print(f"{workload}: clean outputs pass")
            for name, (corrupt, expect) in cases.items():
                total += 1
                bad = work / "bad"
                shutil.rmtree(bad, ignore_errors=True)
                shutil.copytree(out, bad)
                bad_rec = json.loads(json.dumps(rec))
                rc = 3 if corrupt is None else 0
                if corrupt is not None:
                    corrupt(bad, bad_rec)
                try:
                    check(workload, rc, bad, ctx, bad_rec)
                    print(f"  MISSED  {name}")
                except CheckFailed as exc:
                    ok = expect in str(exc)
                    caught += ok
                    print(f"  {'caught' if ok else 'WRONG '}  {name}: {exc}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    print(f"selftest: {caught}/{total} corruptions caught by the intended check")
    return 0 if caught == total else 1


if __name__ == "__main__":
    sys.exit(main())
