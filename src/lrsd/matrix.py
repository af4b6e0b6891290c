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


def _split_fields(text: str, width: int) -> list[str] | None:
    """All tab-separated fields of `text`, row-major, in one split.

    `text` is whole lines, each ending in a newline. Returns None unless
    every line holds exactly `width` fields; the caller then falls back to
    its line scan, which words the error. Blank lines are the caller's:
    `read_tsv` drops them first, and in a study file they fail this count
    or the p-value parse.
    """
    raw = np.frombuffer(text.encode(), np.uint8)
    tabs, ends = np.flatnonzero(raw == 9), np.flatnonzero(raw == 10)
    # line k is whole when exactly (k + 1) * (width - 1) tabs precede its end
    per_line = width - 1
    if len(tabs) != per_line * len(ends) or not np.array_equal(
        np.searchsorted(tabs, ends), np.arange(1, len(ends) + 1) * per_line
    ):
        return None
    fields = text.replace("\n", "\t").split("\t")
    fields.pop()   # the empty field after the last newline
    return fields


def _numeric(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def read_tsv(path, header: bool | None = None, row_labels: bool | None = None) -> DenseMatrix:
    """Read a TSV matrix, auto-detecting a header row and a label column.

    Detection rule: a first line whose non-initial fields are not all numeric
    is a header; a first column that is not numeric holds row labels.
    `header`/`row_labels` force the choice when the heuristic is unwanted.
    """
    with open(path) as fh:
        lines = list(filter(str.strip, fh.read().split("\n")))
    if not lines:
        raise ValueError(f"{path}: empty matrix file")

    first = lines[0].split("\t")
    if header is None:
        header = not all(_numeric(f) for f in first[1:] or first)
    header_row = None
    if header:
        header_row = first
        del lines[0]
        if not lines:
            raise ValueError(f"{path}: header but no data rows")
        first = lines[0].split("\t")
    if row_labels is None:
        row_labels = not _numeric(first[0])

    width = len(first)
    labels, data = None, None
    fields = _split_fields("\n".join(lines) + "\n", width)
    if fields is not None:
        if row_labels:
            labels = fields[::width]
            del fields[::width]
        try:
            data = np.fromiter(map(float, fields), float, len(fields))
        except ValueError:
            pass   # the line scan below names the line
    if data is None:
        labels, data = _scan_rows(path, lines, width, row_labels, 2 if header else 1)
    data = data.reshape(len(lines), width - 1 if row_labels else width)
    col_labels = None
    if header:
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


def _scan_rows(path, lines, width, row_labels, first_lineno):
    """Per-line reference parse of the data rows; errors name the line."""
    labels = [] if row_labels else None
    data = []
    for lineno, line in enumerate(lines, start=first_lineno):
        fields = line.split("\t")
        if len(fields) != width:
            raise ValueError(
                f"{path}:{lineno}: ragged row ({len(fields)} fields, expected {width})"
            )
        if row_labels:
            labels.append(fields[0])
            fields = fields[1:]
        try:
            data.extend(float(f) for f in fields)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return labels, np.array(data, dtype=float)
