"""Post-decomposition reporting: study embeddings and SNP extraction."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np

from .matrix import DenseMatrix, as_array
from .solver import SolverResult, numerical_rank


@dataclass(frozen=True)
class StudyEmbedding:
    study_names: tuple[str, ...] | None
    coordinates: np.ndarray      # (n_studies, r), columns scaled by singular value
    singular_values: np.ndarray  # leading r singular values of X_hat


@dataclass(frozen=True)
class SharedSnp:
    snp_id: str
    studies: tuple[str, ...]     # studies where |X| exceeds the threshold
    magnitudes: tuple[float, ...]
    max_magnitude: float


@dataclass(frozen=True)
class SpecificSnp:
    snp_id: str
    study: str
    value: float


@dataclass(frozen=True)
class SnpReport:
    shared: tuple[SharedSnp, ...]
    specific: tuple[SpecificSnp, ...]
    threshold: float


def embed_studies(X_hat, r: int = 3) -> StudyEmbedding:
    """Leading r study-side singular directions of X_hat, scaled by singular
    value, as per-study coordinates.

    X_hat is oriented SNPs x studies. Column signs are canonicalized by
    making the largest-magnitude coordinate of each column positive.
    """
    x = as_array(X_hat)
    if not 1 <= r <= min(x.shape):
        raise ValueError(f"embedding rank r={r} outside 1..{min(x.shape)}")
    _, s, Vt = np.linalg.svd(x, full_matrices=False)
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


def _labels(mat: DenseMatrix, axis: int, prefix: str) -> tuple[str, ...]:
    labels = mat.row_labels if axis == 0 else mat.col_labels
    if labels is not None:
        return labels
    return tuple(f"{prefix}{i}" for i in range(mat.shape[axis]))


def extract_snps(result: SolverResult, T: float) -> SnpReport:
    """Shared and study-specific SNP calls above a magnitude threshold.

    Shared calls come from rows of the low-rank component whose largest
    absolute entry exceeds T; specific calls are individual sparse-component
    entries exceeding T. Both lists are sorted by descending magnitude.
    """
    if T < 0:
        raise ValueError("threshold must be >= 0")
    X, E = result.X_hat, result.E_hat
    snp_ids = _labels(X, 0, "row")
    studies = _labels(X, 1, "col")

    absX = np.abs(X.values)
    row_max = absX.max(axis=1)
    rows = np.flatnonzero(row_max > T)
    rows = rows[np.argsort(-row_max[rows], kind="stable")]
    shared = tuple(
        SharedSnp(
            snp_id=snp_ids[i],
            studies=tuple(compress(studies, over)),
            magnitudes=tuple(compress(row, over)),
            max_magnitude=peak,
        )
        for i, row, over, peak in zip(
            rows.tolist(),
            X.values[rows].tolist(),
            (absX[rows] > T).tolist(),
            row_max[rows].tolist(),
        )
    )

    ii, jj = np.nonzero(np.abs(E.values) > T)
    values = E.values[ii, jj]
    order = np.argsort(-np.abs(values), kind="stable")
    specific = tuple(
        SpecificSnp(snp_id=snp_ids[i], study=studies[j], value=v)
        for i, j, v in zip(ii[order].tolist(), jj[order].tolist(), values[order].tolist())
    )
    return SnpReport(shared=shared, specific=specific, threshold=T)


def write_embedding_tsv(embedding: StudyEmbedding, path) -> None:
    r = embedding.coordinates.shape[1]
    names = embedding.study_names or tuple(
        f"study{i}" for i in range(embedding.coordinates.shape[0])
    )
    with open(path, "w") as fh:
        fh.write("\t".join(["study"] + [f"c{j + 1}" for j in range(r)]) + "\n")
        for name, row in zip(names, embedding.coordinates):
            fh.write("\t".join([name] + [repr(float(x)) for x in row]) + "\n")


def write_snp_report(report: SnpReport, shared_path, specific_path) -> None:
    with open(shared_path, "w") as fh:
        fh.write("snp\tmax_magnitude\tstudies\tmagnitudes\n")
        # one %-format per row formats its magnitudes faster than one per value
        fh.writelines(
            f"{s.snp_id}\t{s.max_magnitude:.6g}\t{','.join(s.studies)}\t"
            + ",".join(["%.6g"] * len(s.magnitudes)) % tuple(s.magnitudes) + "\n"
            for s in report.shared
        )
    with open(specific_path, "w") as fh:
        fh.write("snp\tstudy\tvalue\n")
        fh.writelines(f"{s.snp_id}\t{s.study}\t{s.value:.6g}\n" for s in report.specific)
