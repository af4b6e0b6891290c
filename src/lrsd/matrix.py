"""Dense matrix container with optional row/column labels and TSV round-trip."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_WRITE_BLOCK = 4096   # rows formatted per block, bounding the Python floats held


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
    """Write a matrix as TSV; labels become a header row / first column.

    Entries are written as `repr` of the float, which round-trips exactly.
    """
    with open(path, "w") as fh:
        if m.col_labels is not None:
            head = list(m.col_labels)
            if m.row_labels is not None:
                head = ["id"] + head
            fh.write("\t".join(head) + "\n")
        for start in range(0, m.n_rows, _WRITE_BLOCK):
            rows = m.values[start:start + _WRITE_BLOCK].tolist()
            if m.row_labels is None:
                fh.writelines("\t".join(map(repr, row)) + "\n" for row in rows)
            else:
                labels = m.row_labels[start:start + _WRITE_BLOCK]
                fh.writelines(
                    "\t".join([label, *map(repr, row)]) + "\n"
                    for label, row in zip(labels, rows)
                )


def _numeric(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def read_tsv(path) -> DenseMatrix:
    """Read a TSV matrix, auto-detecting a header row and a label column.

    Detection rule: a first line whose non-initial fields are not all numeric
    is a header; a first column that is not numeric holds row labels. Blank
    lines are skipped; error line numbers count them.
    """
    with open(path) as fh:
        start, lineno, first = _next_row(fh, 0)
        if first is None:
            raise ValueError(f"{path}: empty matrix file")
        header_row = None
        if not all(_numeric(f) for f in first[1:] or first):
            header_row = first
            start, lineno, first = _next_row(fh, lineno)
            if first is None:
                raise ValueError(f"{path}: header but no data rows")
        row_labels = not _numeric(first[0])
        width = len(first)
        labels, data = _load_rows(fh, start, width, row_labels)
        if data is None:
            fh.seek(start)
            labels, data = _scan_rows(path, fh, width, row_labels, lineno)
    col_labels = None
    if header_row is not None:
        col_labels = header_row[1:] if row_labels else header_row
        if len(col_labels) != data.shape[1]:
            raise ValueError(
                f"{path}: header has {len(col_labels)} labels for {data.shape[1]} columns"
            )
    return DenseMatrix(
        data,
        row_labels=tuple(labels) if labels else None,
        col_labels=tuple(col_labels) if col_labels else None,
    )


def _next_row(fh, lineno):
    """(offset, physical line number, fields) of the next non-blank line after
    line `lineno`; fields is None at the end of the file."""
    while True:
        start = fh.tell()
        line = fh.readline()
        if not line:
            return start, lineno, None
        lineno += 1
        if line.strip():
            return start, lineno, line.rstrip("\n").split("\t")


def _load_rows(fh, start, width, row_labels):
    """Labels and values of the rows from offset `start` by numpy's text
    reader, which holds no Python object per entry. (None, None) when it does
    not take the file as the line scan would: a bad number, a ragged or
    whitespace-only line, or a spelling only `float()` accepts such as `1_000`.
    """
    fh.seek(start)
    try:
        data = np.loadtxt(fh, delimiter="\t", comments=None, ndmin=2,
                          usecols=range(1, width) if row_labels else None)
    except ValueError:
        return None, None
    if not row_labels:
        return None, data
    # usecols drops a long row's extra fields, so count each row's tabs here
    fh.seek(start)
    labels = []
    for line in fh:
        if line.strip():
            if line.count("\t") != width - 1:
                return None, None
            labels.append(line.partition("\t")[0].rstrip("\n"))
    # loadtxt skips only empty lines; a blank one it kept has no label here
    return (labels, data) if len(labels) == len(data) else (None, None)


def _scan_rows(path, lines, width, row_labels, first_lineno):
    """Per-line reference parse of the data rows; errors name the line."""
    labels = [] if row_labels else None
    data = []
    for lineno, line in enumerate(lines, start=first_lineno):
        if not line.strip():
            continue
        fields = line.rstrip("\n").split("\t")
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
    return labels, np.array(data, dtype=float)
