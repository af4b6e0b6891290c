"""Synthetic benchmark generator: four planted bicluster/sparse patterns.

Each instance is a 100 x 50 matrix built from fixed rank-1 or rank-2 bicluster
factors (patterns 1/3), optionally plus independent sparse spikes (patterns
2/4), scaled down by a divisor, row/column shuffled, and corrupted with
i.i.d. Gaussian noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .matrix import DenseMatrix, write_mask, write_tsv

N_ROWS, N_COLS = 100, 50
BICLUSTER_SCALE = 50.0   # d, the Frobenius norm of each planted bicluster
SPARSE_PROB = 0.01       # chance of a spike per entry (patterns 2 and 4)
SPARSE_VALUE = 6.0       # height of a spike
NOISE_SIGMA = 1.0        # standard deviation of the Gaussian noise


@dataclass(frozen=True)
class PatternSpec:
    """What the benchmark varies: the planted pattern, the signal divisor and
    the seed. Everything else is one of the constants above."""

    pattern_id: int
    signal_divisor: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.pattern_id not in (1, 2, 3, 4):
            raise ValueError(f"pattern_id must be 1..4, got {self.pattern_id}")
        if not 1.0 <= self.signal_divisor < math.inf:
            raise ValueError(f"signal_divisor must be finite and >= 1, got {self.signal_divisor}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SimulatedInstance:
    data: DenseMatrix          # signal + noise, shuffled
    truth_signal: DenseMatrix  # pre-noise signal, same shuffle as data
    truth_mask: np.ndarray     # boolean support of truth_signal
    row_perm: np.ndarray
    col_perm: np.ndarray
    snr: float
    spec: PatternSpec


def _steps(*runs):
    out = []
    for value, count in runs:
        out.extend([float(value)] * count)
    return np.array(out)


def factor_vectors() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four unit-norm bicluster factors (u1, v1, u2, v2).

    u's have length 100 (rows), v's length 50 (columns). u1/v1 define the
    single bicluster of patterns 1-2; u2/v2 add the overlapping second
    bicluster of patterns 3-4.
    """
    u1 = np.concatenate([[10, 9, 8, 7, 6, 5, 4, 3], _steps((2, 17), (0, 75))])
    v1 = np.concatenate([[10, -10, 8, -8, 5, -5], _steps((3, 5), (-3, 5), (0, 34))])
    u2 = np.concatenate([_steps((0, 13)), [10, 9, 8, 7, 6, 5, 4, 3], _steps((2, 17), (0, 62))])
    v2 = np.concatenate([_steps((0, 9)), [10, -9, 8, -7, 6, -5], _steps((4, 5), (-3, 5), (0, 25))])
    return tuple(x / np.linalg.norm(x) for x in (u1, v1, u2, v2))


def _planted_bases() -> tuple[np.ndarray, np.ndarray]:
    """The planted signal of patterns 1-2 and of patterns 3-4 before spikes,
    divisor and shuffle, read-only: every instance starts from one of them."""
    u1, v1, u2, v2 = factor_vectors()
    one = BICLUSTER_SCALE * np.outer(u1, v1)
    two = one + BICLUSTER_SCALE * np.outer(u2, v2)
    for base in (one, two):
        base.setflags(write=False)
    return one, two


_ONE_BICLUSTER, _TWO_BICLUSTERS = _planted_bases()


def _stream(seed: int, i: int) -> np.random.Generator:
    """Child i of `SeedSequence(seed).spawn(3)`, built directly from its spawn key."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))


def compute_snr(truth_signal) -> float:
    """Root-mean-square of the signal over its support, divided by NOISE_SIGMA."""
    a = truth_signal.values if isinstance(truth_signal, DenseMatrix) else np.asarray(truth_signal)
    support = a != 0
    if not support.any():
        raise ValueError("SNR is undefined for an all-zero signal")
    return float(np.sqrt((a[support] ** 2).mean()) / NOISE_SIGMA)


def generate(spec: PatternSpec) -> SimulatedInstance:
    """Build one seeded instance of the requested pattern.

    The seed is split into independent streams for the sparse draw, the
    shuffle, and the noise, so instances of patterns 1 and 2 (or 3 and 4)
    with the same seed differ only by the sparse spikes. The sparse stream
    is drawn only for patterns 2 and 4.
    """
    M = _TWO_BICLUSTERS if spec.pattern_id >= 3 else _ONE_BICLUSTER
    if spec.pattern_id in (2, 4):
        spikes = _stream(spec.seed, 0).random((N_ROWS, N_COLS)) < SPARSE_PROB
        M = M + SPARSE_VALUE * spikes

    M = M / spec.signal_divisor
    rng_perm, rng_noise = _stream(spec.seed, 1), _stream(spec.seed, 2)
    row_perm = rng_perm.permutation(N_ROWS)
    col_perm = rng_perm.permutation(N_COLS)
    # two takes keep M and its mask C-ordered; M[rows][:, cols] gives F order
    M = M.take(row_perm, axis=0).take(col_perm, axis=1)
    noise = rng_noise.normal(0.0, NOISE_SIGMA, M.shape)

    return SimulatedInstance(
        data=DenseMatrix(M + noise),
        truth_signal=DenseMatrix(M),
        truth_mask=M != 0,
        row_perm=row_perm,
        col_perm=col_perm,
        snr=compute_snr(M),
        spec=spec,
    )


def save_instance(inst: SimulatedInstance, outdir) -> None:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    write_tsv(inst.data, out / "data.tsv")
    write_tsv(inst.truth_signal, out / "truth.tsv")
    write_mask(inst.truth_mask, out / "mask.tsv")
    spec = inst.spec
    meta = {
        "pattern": spec.pattern_id,
        "d": BICLUSTER_SCALE,
        "sparse_prob": SPARSE_PROB,
        "sparse_value": SPARSE_VALUE,
        "noise_sigma": NOISE_SIGMA,
        "divisor": spec.signal_divisor,
        "seed": spec.seed,
        "snr": inst.snr,
        "row_perm": ",".join(map(str, inst.row_perm)),
        "col_perm": ",".join(map(str, inst.col_perm)),
    }
    with open(out / "meta.txt", "w", encoding="utf-8") as fh:
        for key, value in meta.items():
            fh.write(f"{key}={value}\n")
