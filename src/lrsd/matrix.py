"""Dense matrix container with optional row/column labels and TSV round-trip."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DenseMatrix:
    """An immutable n x p matrix of finite floats, optionally labelled.

    Carries the data matrix and the recovered components throughout the
    pipeline: rows are SNPs (or generic row units), columns are studies.
    """

    values: np.ndarray
    row_labels: tuple[str, ...] | None = None
    col_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise ValueError(f"expected a 2-D array, got ndim={vals.ndim}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("matrix entries must be finite (no NaN/Inf)")
        vals = np.ascontiguousarray(vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if self.row_labels is not None:
            object.__setattr__(self, "row_labels", tuple(self.row_labels))
            if len(self.row_labels) != vals.shape[0]:
                raise ValueError(
                    f"{len(self.row_labels)} row labels for {vals.shape[0]} rows"
                )
        if self.col_labels is not None:
            object.__setattr__(self, "col_labels", tuple(self.col_labels))
            if len(self.col_labels) != vals.shape[1]:
                raise ValueError(
                    f"{len(self.col_labels)} column labels for {vals.shape[1]} columns"
                )

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def as_array(m) -> np.ndarray:
    """Accept a DenseMatrix or a plain array and return the float ndarray."""
    if isinstance(m, DenseMatrix):
        return m.values
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D array, got ndim={a.ndim}")
    return a


def write_tsv(m: DenseMatrix, path) -> None:
    """Write a matrix as TSV; labels become a header row / first column."""
    with open(path, "w") as fh:
        if m.col_labels is not None:
            head = list(m.col_labels)
            if m.row_labels is not None:
                head = ["id"] + head
            fh.write("\t".join(head) + "\n")
        for i in range(m.n_rows):
            row = [repr(float(x)) for x in m.values[i]]
            if m.row_labels is not None:
                row = [m.row_labels[i]] + row
            fh.write("\t".join(row) + "\n")


def read_tsv(path, header: bool | None = None, row_labels: bool | None = None) -> DenseMatrix:
    """Read a TSV matrix, auto-detecting a header row and a label column.

    Detection rule: a first line whose non-initial fields are not all numeric
    is a header; a first column that is not numeric holds row labels.
    `header`/`row_labels` force the choice when the heuristic is unwanted.
    """
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip() != ""]
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    rows = [ln.split("\t") for ln in lines]

    def _numeric(s: str) -> bool:
        try:
            float(s)
            return True
        except ValueError:
            return False

    if header is None:
        header = not all(_numeric(f) for f in rows[0][1:] or rows[0])
    col_labels = None
    if header:
        header_row = rows.pop(0)
        if not rows:
            raise ValueError(f"{path}: header but no data rows")
    if row_labels is None:
        row_labels = not _numeric(rows[0][0])

    width = len(rows[0])
    labels = [] if row_labels else None
    data = []
    for k, fields in enumerate(rows):
        lineno = k + (2 if header else 1)
        if len(fields) != width:
            raise ValueError(
                f"{path}:{lineno}: ragged row ({len(fields)} fields, expected {width})"
            )
        if row_labels:
            labels.append(fields[0])
            fields = fields[1:]
        try:
            data.append([float(f) for f in fields])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if header:
        col_labels = header_row[1:] if row_labels else header_row
        if len(col_labels) != len(data[0]):
            raise ValueError(
                f"{path}: header has {len(col_labels)} labels for {len(data[0])} columns"
            )
    return DenseMatrix(
        np.array(data, dtype=float),
        row_labels=tuple(labels) if labels else None,
        col_labels=tuple(col_labels) if col_labels else None,
    )
