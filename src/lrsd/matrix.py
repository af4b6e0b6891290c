"""Dense matrix container with optional row/column labels and TSV round-trip."""

from __future__ import annotations

import errno
import os
import shutil
import signal
import sys
import tempfile
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

_WRITE_BLOCK = 4096   # rows or entries rendered per block, bounding the Python objects held
_MAX_WRITERS = 8


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
        for field, kind, count in (("row_labels", "row", vals.shape[0]),
                                   ("col_labels", "column", vals.shape[1])):
            labels = getattr(self, field)
            if labels is None:
                continue
            labels = tuple(labels)
            object.__setattr__(self, field, labels)
            if len(labels) != count:
                raise ValueError(f"{len(labels)} {kind} labels for {count} {kind}s")
            _check_labels(labels, kind)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def _check_labels(labels: tuple, kind: str) -> None:
    """Refuse a label that holds a tab, newline or carriage return: written
    as it is, it would split a field or a line of the TSV."""
    joined = "".join(labels)   # one pass in C; the loop runs only to name the culprit
    if "\t" in joined or "\n" in joined or "\r" in joined:
        i = next(i for i, label in enumerate(labels) if any(c in label for c in "\t\n\r"))
        raise ValueError(f"{kind} label {i} ({labels[i]!r}) holds a tab or line break")


def as_array(m, name: str) -> np.ndarray:
    """Accept a DenseMatrix or a plain array and return the float ndarray.

    Every library entry point takes its matrices through here, so a matrix
    that is not 2-D, has no entries, or has a NaN, +Inf or -Inf entry is
    refused with a ValueError before any LAPACK call; the finiteness error
    names the argument `name`. A DenseMatrix is finite by construction and
    takes no second pass.
    """
    dense = isinstance(m, DenseMatrix)
    a = m.values if dense else np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D array, got ndim={a.ndim}")
    if a.size == 0:
        raise ValueError(f"expected a matrix with entries, got an empty {a.shape[0]} x "
                         f"{a.shape[1]} matrix")
    if not dense and not np.isfinite(a).all():
        raise ValueError(f"{name} has NaN or Inf entries")
    return a


def _same_shape(*named) -> None:
    """Refuse arrays of different shapes, given as (name, array) pairs, with
    one ValueError `A is r x c but B is r x c` that names the first array and
    the first whose shape differs from it; any number of dimensions is
    written this way (`4` for a 1-D array of 4)."""
    (name_a, dims_a), *rest = [(name, " x ".join(map(str, a.shape))) for name, a in named]
    for name_b, dims_b in rest:
        if dims_b != dims_a:
            raise ValueError(f"{name_a} is {dims_a} but {name_b} is {dims_b}")


def write_tsv(m: DenseMatrix, path) -> None:
    """Write a matrix as TSV; labels become a header row / first column.

    Entries are written as `repr` of the float, which round-trips exactly.
    The rows go through `_write_shares`, so the bytes do not depend on the
    number of writers, and any `OSError` names `path` as its filename.
    """
    _write_shares(path, _header(m.row_labels, m.col_labels), m.n_rows,
                  lambda lo, hi, fh: _write_rows(m, lo, hi, fh))


def write_mask(mask: np.ndarray, path, row_labels=None, col_labels=None) -> None:
    """Write a 2-D bool array as `write_tsv` writes the same array of 0.0s
    and 1.0s with these labels, byte for byte, rendered from the bools with
    numpy: no float copy of the mask is made."""
    mask = np.ascontiguousarray(mask)   # a row's cells must be adjacent for the byte view

    def render(lo, hi, fh):
        # each cell is "0.0" or "1.0" and a tab: four bytes; a row's last tab becomes a newline
        cells = np.where(mask[lo:hi], b"1.0\t", b"0.0\t").view(np.uint8)
        cells[:, -1] = ord("\n")
        fh.writelines(_labelled(row_labels, lo, hi, cells.tobytes().decode().splitlines(True)))

    _write_shares(path, _header(row_labels, col_labels), len(mask), render)


def _header(row_labels, col_labels) -> str:
    """The header line of a matrix TSV: the column labels, after `id` when
    rows are labelled; empty without column labels."""
    if col_labels is None:
        return ""
    return "\t".join(["id", *col_labels] if row_labels is not None else col_labels) + "\n"


def _write_shares(path, head: str, n: int, render) -> None:
    """Write `head`, then items 0..n-1 by `render(lo, hi, fh)`, which writes
    items lo..hi-1 (one block of at most `_WRITE_BLOCK`) to the text file `fh`.

    The items are split into contiguous shares, one per writer process
    (`_writers`): this process writes the head and the first share, and
    each forked writer renders its share into a temporary file in the
    output's directory, which is appended in order. The bytes do not depend
    on the number of writers. Any `OSError` names `path` as its filename.
    """
    w = _writers(n)
    bounds = [n * i // w for i in range(w + 1)]
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(head)
            parts, pids = [], []
            try:
                folder = os.path.dirname(os.path.abspath(path))
                for _ in range(w - 1):
                    parts.append(tempfile.TemporaryFile(dir=folder))
                for part, lo, hi in zip(parts, bounds[1:], bounds[2:]):
                    pids.append(_fork_writer(render, lo, hi, part))
                _render_blocks(render, 0, bounds[1], fh)
                fh.flush()
                for part in parts:
                    code = _reap(pids[0])
                    del pids[0]
                    if code:
                        raise OSError(code, os.strerror(code))
                    part.seek(0)
                    shutil.copyfileobj(part, fh.buffer)
            finally:
                for pid in pids:   # only after a failure: stop the rest unfinished
                    os.kill(pid, signal.SIGKILL)
                    _reap(pid)
                for part in parts:
                    part.close()
    except OSError as exc:   # name the file, whichever process failed
        raise OSError(exc.errno, exc.strerror, path) from exc


def _writers(n_items: int) -> int:
    """Writer processes for `n_items` rows or entries: one per usable CPU, at
    most `_MAX_WRITERS` and at most one per `_WRITE_BLOCK` items; one without
    `os.fork`."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(_usable_cpus(), _MAX_WRITERS, n_items // _WRITE_BLOCK))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask (`os.sched_getaffinity`),
    else `os.cpu_count()`, else 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _render_blocks(render, lo: int, hi: int, fh) -> None:
    """Render items lo..hi-1 to `fh` one block at a time, bounding the Python
    objects held at once."""
    for start in range(lo, hi, _WRITE_BLOCK):
        render(start, min(start + _WRITE_BLOCK, hi), fh)


def _write_rows(m: DenseMatrix, lo: int, hi: int, fh) -> None:
    """Render rows lo..hi-1 of `m` to the text file `fh`."""
    lines = ("\t".join(map(repr, row)) + "\n" for row in m.values[lo:hi].tolist())
    fh.writelines(_labelled(m.row_labels, lo, hi, lines))


def _labelled(row_labels, lo: int, hi: int, lines):
    """The `lines` of rows lo..hi-1, each after its row label and a tab when
    there are row labels."""
    return lines if row_labels is None else map("{}\t{}".format, row_labels[lo:hi], lines)


def _fork_writer(render, lo: int, hi: int, part) -> int:
    """Fork a process that renders items lo..hi-1 into the binary file `part`
    and exits with 0, with the errno of the OSError that stopped it, or with
    EIO after any other error."""
    with warnings.catch_warnings():
        # Python >= 3.12 warns on fork when other threads run, such as a BLAS
        # pool; the writer takes no lock they hold, and an error raised here
        # would lose the pid of a child that was already forked
        warnings.filterwarnings("ignore", ".*use of fork\\(\\) may lead to deadlocks",
                                DeprecationWarning)
        pid = os.fork()
    if pid:
        return pid
    code = errno.EIO
    try:
        with open(part.fileno(), "w", encoding="utf-8", closefd=False) as out:
            _render_blocks(render, lo, hi, out)
        code = 0
    except OSError as exc:
        code = exc.errno or errno.EIO
    except Exception:
        sys.excepthook(*sys.exc_info())
    finally:
        os._exit(code)   # never unwind into the parent's frames


def _reap(pid: int) -> int:
    """Wait for a writer; its exit code, or EIO if a signal ended it."""
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    return code if code >= 0 else errno.EIO


def _numeric(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


@contextmanager
def _open_utf8(path):
    """Open `path` to read as UTF-8 text, skipping a leading byte-order mark
    (BOM). A byte that is not UTF-8, met while the block reads the file, is
    refused as `ValueError("PATH:LINE: not UTF-8 text")`; only then is the
    file read again, as bytes, to find the line (`?` if the file has changed
    since and every line now decodes)."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            # a line is UTF-8 when decoding it with replacement and encoding it back gives it
            fh.buffer.seek(0)
            lineno = next((i for i, line in enumerate(fh.buffer, start=1)
                           if line.decode("utf-8", "replace").encode() != line), "?")
            raise ValueError(f"{path}:{lineno}: not UTF-8 text") from None


def read_tsv(path) -> DenseMatrix:
    """Read a TSV matrix, with the layout rule `write_tsv` writes by.

    A first line whose first field is exactly `id` is a header, and the
    rows then carry labels. Otherwise the first line is a header when a
    field after its first is not a number, and the rows carry labels when
    the first data row's first field is not a number. So every file that
    `write_tsv` or `write_mask` writes with both row and column labels, or
    with neither, reads back exactly, numeric labels included. Labels on
    one side only have limits: a header of numbers alone is read as data,
    and an unlabelled matrix whose first column is named `id`, or a
    headerless one whose first row label is `id`, is read as labelled.

    Blank lines are skipped; error line numbers count them. An entry that
    is not a number, or is NaN, +Inf or -Inf, is refused with a ValueError
    that names the file and line. The file is read as UTF-8; a leading
    byte-order mark (BOM) is skipped, and a byte that is not UTF-8 is
    refused with `PATH:LINE: not UTF-8 text`.
    """
    with _open_utf8(path) as fh:
        start, lineno, first = _next_row(fh, 0)
        if first is None:
            raise ValueError(f"{path}: empty matrix file")
        header_row, id_header = None, first[0] == "id"
        if id_header or not all(_numeric(f) for f in first[1:] or first):
            header_row = first
            start, lineno, first = _next_row(fh, lineno)
            if first is None:
                raise ValueError(f"{path}: header but no data rows")
        row_labels = id_header or not _numeric(first[0])
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


def read_mask(path) -> np.ndarray:
    """A matrix TSV of 0/1 entries, as `write_mask` writes one, as a bool
    array; any other entry is refused with a ValueError that names the file."""
    values = read_tsv(path).values
    bad = values[(values != 0) & (values != 1)]
    if bad.size:
        raise ValueError(f"{path}: mask entries must be 0 or 1, got {float(bad[0])!r}")
    return values == 1


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
    not take the file as the line scan would: a bad or non-finite number, a
    ragged or whitespace-only line, or a spelling only `float()` accepts such
    as `1_000`.
    """
    fh.seek(start)
    try:
        data = np.loadtxt(fh, delimiter="\t", comments=None, ndmin=2,
                          usecols=range(1, width) if row_labels else None)
    except ValueError:
        return None, None
    if not np.isfinite(data).all():   # the line scan names the line
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
            row = [float(f) for f in fields]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        finite = np.isfinite(row)
        if not finite.all():
            raise ValueError(f"{path}:{lineno}: matrix entries must be finite, got "
                             f"{fields[finite.argmin()].strip()!r}")
        data.append(row)
    return labels, np.array(data, dtype=float)
