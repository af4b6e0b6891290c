"""Post-decomposition reporting: study embeddings and the shared/specific SNP reports."""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .matrix import DenseMatrix, _write_shares, as_array
from .solver import SolverResult, _calls, _right_svd, numerical_rank


@dataclass(frozen=True)
class StudyEmbedding:
    study_names: tuple[str, ...] | None
    coordinates: np.ndarray      # (n_studies, r), columns scaled by singular value
    singular_values: np.ndarray  # leading r singular values of X_hat


def embed_studies(X_hat, r: int = 3) -> StudyEmbedding:
    """Leading r study-side singular directions of X_hat, scaled by singular
    value, as per-study coordinates.

    X_hat is oriented SNPs x studies. Column signs are canonicalized by
    making the largest-magnitude coordinate of each column positive. r must
    be an integer (`numbers.Integral`) in 1..min(n, p) and at most the
    numerical rank of X_hat; a non-integer r is refused before the SVD.
    """
    x = as_array(X_hat, "X_hat")
    if not isinstance(r, numbers.Integral):
        raise ValueError(f"embedding rank must be an integer in 1..{min(x.shape)}, got {r!r}")
    if not 1 <= r <= min(x.shape):
        raise ValueError(f"embedding rank r={r} outside 1..{min(x.shape)}")
    s, Vt = _right_svd(x)
    rank = numerical_rank(s)
    if r > rank:
        raise ValueError(f"embedding rank r={r} exceeds the numerical rank {rank}")
    coords = (Vt[:r, :].T) * s[:r]
    for j in range(r):
        col = coords[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            coords[:, j] = -col
    names = X_hat.col_labels if isinstance(X_hat, DenseMatrix) else None
    return StudyEmbedding(study_names=names, coordinates=coords, singular_values=s[:r].copy())


def single_linkage_groups(embedding: StudyEmbedding, radius: float) -> list[int]:
    """Group studies whose embedding points chain within `radius`.

    Returns one group label per study (labels are ordinal by first member).
    """
    from scipy.cluster.hierarchy import fcluster, linkage

    pts = embedding.coordinates
    if pts.shape[0] == 1:
        return [0]
    raw = fcluster(linkage(pts, method="single"), t=radius, criterion="distance")
    seen: dict[int, int] = {}
    return [seen.setdefault(c, len(seen)) for c in raw]


def _labels(labels, n: int, prefix: str) -> tuple[str, ...]:
    """The labels, or `{prefix}{i}` for i in 0..n-1 when there are none: an
    unlabelled matrix's rows are row0, row1, ... and its studies col0, col1, ..."""
    return labels if labels is not None else tuple(f"{prefix}{i}" for i in range(n))


def write_embedding_tsv(embedding: StudyEmbedding, path) -> None:
    """Write one line per study: its name and its coordinates c1..cr.

    Unlabelled studies are named col0, col1, ..., as `write_snp_report` names them.
    """
    n, r = embedding.coordinates.shape
    names = _labels(embedding.study_names, n, "col")
    with open(path, "w") as fh:
        fh.write("\t".join(["study"] + [f"c{j + 1}" for j in range(r)]) + "\n")
        for name, row in zip(names, embedding.coordinates):
            fh.write("\t".join([name] + [repr(float(x)) for x in row]) + "\n")


def write_snp_report(result: SolverResult, shared_path, specific_path, T: float) -> tuple[int, int]:
    """Write the shared and study-specific SNP calls of `solver._calls` at threshold T.

    `shared_path` gets one line per row with a call in the low-rank
    component (|X| > T), with the studies and values called; `specific_path`
    gets one line per call in the sparse component (|E| > T).
    Both are sorted by descending magnitude, ties in row-major order, and
    written on every usable core by `matrix._write_shares`.
    Returns the number of shared rows and of specific entries.
    """
    X, E = result.X_hat, result.E_hat
    x_calls, e_calls = _calls(X.values, E.values, T)
    snp_ids = _labels(X.row_labels, X.n_rows, "row")
    studies = _labels(X.col_labels, X.n_cols, "col")

    # the max_magnitude column and the sort key: max |X| per row, with no |X| array
    row_max = np.maximum(X.values.max(axis=1), -X.values.min(axis=1))
    rows = np.flatnonzero(x_calls.any(axis=1))
    rows = rows[np.argsort(-row_max[rows], kind="stable")]

    def shared(lo, hi, fh):
        block = rows[lo:hi]
        for i, row, over, peak in zip(block.tolist(), X.values[block].tolist(),
                                      x_calls[block].tolist(), row_max[block].tolist()):
            magnitudes = tuple(compress(row, over))
            # one %-format per row formats its magnitudes faster than one per value
            fh.write(
                f"{snp_ids[i]}\t{peak:.6g}\t{','.join(compress(studies, over))}\t"
                + ",".join(["%.6g"] * len(magnitudes)) % magnitudes + "\n"
            )

    ii, jj = np.nonzero(e_calls)
    values = E.values[ii, jj]
    order = np.argsort(-np.abs(values), kind="stable")
    ii, jj, values = ii[order], jj[order], values[order]

    def specific(lo, hi, fh):
        fh.writelines(
            f"{snp_ids[i]}\t{studies[j]}\t{v:.6g}\n"
            for i, j, v in zip(ii[lo:hi].tolist(), jj[lo:hi].tolist(), values[lo:hi].tolist())
        )

    _write_shares(shared_path, "snp\tmax_magnitude\tstudies\tmagnitudes\n", len(rows), shared)
    _write_shares(specific_path, "snp\tstudy\tvalue\n", len(values), specific)
    return len(rows), len(values)
