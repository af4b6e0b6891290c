import errno
import os
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lrsd import matrix
from lrsd.matrix import DenseMatrix, as_array, read_tsv, write_mask, write_tsv


def test_rejects_nonfinite():
    with pytest.raises(ValueError):
        DenseMatrix(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        DenseMatrix(np.array([[np.inf, 0.0]]))


def test_rejects_label_mismatch():
    with pytest.raises(ValueError):
        DenseMatrix(np.zeros((2, 3)), row_labels=("a",))
    with pytest.raises(ValueError):
        DenseMatrix(np.zeros((2, 3)), col_labels=("a", "b"))


@pytest.mark.parametrize("label", ["a\tb", "a\nb", "a\rb", "\t"])
@pytest.mark.parametrize("kind", ["row", "column"])
def test_rejects_label_that_breaks_the_file(label, kind):
    # written as they are, such labels read back as another shape
    labels = ("ok", label, "c")
    with pytest.raises(ValueError) as err:
        if kind == "row":
            DenseMatrix(np.zeros((3, 2)), row_labels=labels)
        else:
            DenseMatrix(np.zeros((2, 3)), col_labels=labels)
    assert str(err.value) == f"{kind} label 1 ({label!r}) holds a tab or line break"


def test_values_are_immutable():
    m = DenseMatrix(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        m.values[0, 0] = 1.0


def test_shape_properties():
    m = DenseMatrix(np.zeros((3, 4)))
    assert (m.n_rows, m.n_cols) == (3, 4)
    assert m.shape == (3, 4)


def test_as_array_passthrough():
    a = np.ones((2, 2))
    assert as_array(a, "a") is not None
    assert np.array_equal(as_array(DenseMatrix(a), "a"), a)
    with pytest.raises(ValueError):
        as_array(np.ones(3), "a")


def test_tsv_roundtrip_plain(tmp_path):
    m = DenseMatrix(np.array([[1.5, -2e-8], [3.25, 0.0]]))
    write_tsv(m, tmp_path / "m.tsv")
    back = read_tsv(tmp_path / "m.tsv")
    assert np.array_equal(back.values, m.values)
    assert back.row_labels is None and back.col_labels is None


def test_tsv_roundtrip_labelled(tmp_path):
    m = DenseMatrix(
        np.array([[1.0, 2.0], [3.0, 4.0]]),
        row_labels=("rs1", "rs2"),
        col_labels=("bmi", "height"),
    )
    write_tsv(m, tmp_path / "m.tsv")
    back = read_tsv(tmp_path / "m.tsv")
    assert back.row_labels == ("rs1", "rs2")
    assert back.col_labels == ("bmi", "height")
    assert np.array_equal(back.values, m.values)


def test_read_ragged_reports_line(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("1\t2\n3\t4\t5\n")
    with pytest.raises(ValueError, match="bad.tsv:2"):
        read_tsv(p)


def test_read_bad_number_reports_line(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("1\t2\n3\tx\n")
    with pytest.raises(ValueError, match=":2"):
        read_tsv(p)


@pytest.mark.parametrize("labelled", [False, True], ids=["unlabelled", "labelled"])
@pytest.mark.parametrize("row", [0, 2], ids=["first row", "third row"])
@pytest.mark.parametrize("spelling", ["nan", "-inf", "Infinity", "NaN"])
def test_read_non_finite_names_line(tmp_path, spelling, row, labelled):
    # numpy's reader and float() both take these spellings; the entry is refused,
    # and the line named counts the blank lines before it
    rows = [["1.5", "2"], ["3", "4"], ["5", "6"]]
    rows[row][1] = spelling
    lines = ["", "id\ta\tb" if labelled else "", " "]
    for i, fields in enumerate(rows):
        lines += [""] + ["\t".join([f"r{i}"] * labelled + fields)]
    p = tmp_path / "m.tsv"
    p.write_text("\n".join(lines) + "\n")
    line = lines.index("\t".join([f"r{row}"] * labelled + rows[row])) + 1
    message = f"{p}:{line}: matrix entries must be finite, got {spelling!r}"
    with pytest.raises(ValueError) as err:
        read_tsv(p)
    assert str(err.value) == message


def test_read_non_finite_first_label(tmp_path):
    # a first row label that float() takes: the rest of the first column decides
    p = tmp_path / "m.tsv"
    p.write_text("id\ta\tb\nnan\t1\t2\nrs2\t3\t4\n")
    m = read_tsv(p)
    assert m.row_labels == ("nan", "rs2") and m.col_labels == ("a", "b")
    assert m.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]


@pytest.mark.parametrize("text, spelling", [
    ("a\tb\tc\nnan\t1\t2\n3\t4\t5\n", "nan"),   # a numeric first column: no labels
    ("1\t2\ninf\t3\n", "inf"),                  # no header, and decided by a finite row
])
def test_read_non_finite_first_field_unlabelled(tmp_path, text, spelling):
    p = tmp_path / "m.tsv"
    p.write_text(text)
    with pytest.raises(ValueError) as err:
        read_tsv(p)
    assert str(err.value) == f"{p}:2: matrix entries must be finite, got {spelling!r}"


def test_read_non_finite_first_label_without_id_header(tmp_path):
    # only an `id` header marks labelled rows; without one, the first row's
    # first field decides, and `nan` is a number
    p = tmp_path / "m.tsv"
    p.write_text("snp\ta\tb\nnan\t1\t2\nrs2\t3\t4\n")
    with pytest.raises(ValueError) as err:
        read_tsv(p)
    assert str(err.value) == f"{p}:2: matrix entries must be finite, got 'nan'"


def test_read_empty_errors(tmp_path):
    p = tmp_path / "empty.tsv"
    p.write_text("")
    with pytest.raises(ValueError):
        read_tsv(p)


def _write_tsv_reference(m: DenseMatrix, path) -> None:
    """The per-entry `repr(float(x))` writer that `write_tsv` replaced."""
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


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, 0.1, 1 / 3, -2.5e-8, 123456789.0]
finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS))


@st.composite
def matrices(draw):
    values = draw(arrays(float, st.tuples(st.integers(1, 12), st.integers(1, 5)), elements=finite))
    n, p = values.shape
    rows = tuple(f"rs{i}" for i in range(n)) if draw(st.booleans()) else None
    cols = tuple(f"study{j}" for j in range(p)) if draw(st.booleans()) else None
    return DenseMatrix(values, row_labels=rows, col_labels=cols)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_tsv_roundtrip_exact(tmp_path_factory, m):
    path = tmp_path_factory.mktemp("rt") / "m.tsv"
    write_tsv(m, path)
    back = read_tsv(path)
    assert back.values.tobytes() == m.values.tobytes()   # bit for bit, -0.0 included
    assert back.row_labels == m.row_labels
    assert back.col_labels == m.col_labels


LABEL_SPELLINGS = ["1", "-0", "1e5", "nan", "Infinity", "1_000", "", " ", "id", "#x"]
# any text a label may hold (a lone surrogate has no UTF-8 form), and spellings that read as numbers
labels = st.one_of(
    st.text(st.characters(exclude_categories=["Cs"], exclude_characters="\t\n\r")),
    st.sampled_from(LABEL_SPELLINGS),
)


@st.composite
def labelled_or_not(draw):
    """A matrix with both row and column labels, which may spell numbers,
    `id` or nothing at all, or with neither."""
    values = draw(arrays(float, st.tuples(st.integers(1, 8), st.integers(1, 4)), elements=finite))
    if not draw(st.booleans()):
        return DenseMatrix(values)
    n, p = values.shape
    return DenseMatrix(values, row_labels=draw(st.lists(labels, min_size=n, max_size=n)),
                       col_labels=draw(st.lists(labels, min_size=p, max_size=p)))


@settings(max_examples=300, deadline=None)
@given(labelled_or_not())
@example(DenseMatrix(np.ones((3, 2)), row_labels=("100", "200", "300"), col_labels=("1", "2")))
@example(DenseMatrix(np.ones((2, 2)), row_labels=("nan", "rs2"), col_labels=("a", "b")))
def test_tsv_roundtrip_any_labels(tmp_path_factory, m):
    path = tmp_path_factory.mktemp("rl") / "m.tsv"
    write_tsv(m, path)
    back = read_tsv(path)
    assert back.values.tobytes() == m.values.tobytes()
    assert (back.row_labels, back.col_labels) == (m.row_labels, m.col_labels)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_write_tsv_matches_reference_bytes(tmp_path_factory, m):
    d = tmp_path_factory.mktemp("wb")
    write_tsv(m, d / "new.tsv")
    _write_tsv_reference(m, d / "ref.tsv")
    assert (d / "new.tsv").read_bytes() == (d / "ref.tsv").read_bytes()


def test_write_tsv_blocks_match_reference(tmp_path):
    rng = np.random.default_rng(0)
    n = 2 * 4096 + 17   # crosses the writer's row blocks
    m = DenseMatrix(rng.normal(size=(n, 3)), row_labels=tuple(f"r{i}" for i in range(n)))
    write_tsv(m, tmp_path / "new.tsv")
    _write_tsv_reference(m, tmp_path / "ref.tsv")
    assert (tmp_path / "new.tsv").read_bytes() == (tmp_path / "ref.tsv").read_bytes()


@st.composite
def shared_writes(draw):
    """A matrix around a small `_WRITE_BLOCK`, and a forced writer count."""
    block = draw(st.integers(2, 5))
    n = draw(st.one_of(st.sampled_from([0, 1, block - 1, block, block + 1]),
                       st.integers(0, 6 * block)))
    elements = st.one_of(finite, st.sampled_from([-0.0, 5e-324, -2.5e-320, 0.30000000000000004,
                                                  -1.2345678901234567e-89]))
    values = draw(arrays(float, (n, draw(st.integers(1, 4))), elements=elements))
    rows = tuple(f"rs{i}" for i in range(n)) if draw(st.booleans()) else None
    cols = tuple(f"s{j}" for j in range(values.shape[1])) if draw(st.booleans()) else None
    return DenseMatrix(values, row_labels=rows, col_labels=cols), block, draw(st.integers(1, 4))


@settings(max_examples=200, deadline=None)
@given(shared_writes())
def test_write_tsv_shares_match_reference_bytes(tmp_path_factory, case):
    # the per-entry reference renders every row in one share, as a single
    # `_write_rows` call does (test_write_tsv_matches_reference_bytes)
    m, block, workers = case
    d = tmp_path_factory.mktemp("ws")
    with mock.patch.object(matrix, "_WRITE_BLOCK", block), \
            mock.patch.object(matrix, "_writers", lambda n_rows: workers):
        write_tsv(m, d / "new.tsv")
    _write_tsv_reference(m, d / "ref.tsv")
    assert (d / "new.tsv").read_bytes() == (d / "ref.tsv").read_bytes()
    assert sorted(os.listdir(d)) == ["new.tsv", "ref.tsv"]


@st.composite
def mask_writes(draw):
    """A bool mask around a small `_WRITE_BLOCK`, its labels or none, and a
    forced writer count."""
    block = draw(st.integers(2, 5))
    n = draw(st.one_of(st.sampled_from([0, 1, block, block + 1]), st.integers(0, 6 * block)))
    mask = draw(arrays(bool, (n, draw(st.integers(1, 5)))))
    rows = tuple(f"rs{i}" for i in range(n)) if draw(st.booleans()) else None
    cols = tuple(f"s{j}" for j in range(mask.shape[1])) if draw(st.booleans()) else None
    return mask, rows, cols, block, draw(st.integers(1, 4))


@settings(max_examples=200, deadline=None)
@given(mask_writes())
def test_write_mask_matches_write_tsv(tmp_path_factory, case):
    mask, rows, cols, block, workers = case
    d = tmp_path_factory.mktemp("wm")
    with mock.patch.object(matrix, "_WRITE_BLOCK", block), \
            mock.patch.object(matrix, "_writers", lambda n_items: workers):
        write_mask(mask, d / "mask.tsv", rows, cols)
    write_tsv(DenseMatrix(mask.astype(float), rows, cols), d / "ref.tsv")
    assert (d / "mask.tsv").read_bytes() == (d / "ref.tsv").read_bytes()
    assert sorted(os.listdir(d)) == ["mask.tsv", "ref.tsv"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus, rows, workers", [
    (2, 0, 1), (2, 4095, 1), (2, 8191, 1), (2, 8192, 2), (2, 10 ** 6, 2),
    (3, 3 * 4096 - 1, 2), (16, 10 ** 6, 8), (1, 10 ** 6, 1),
])
def test_writer_count_rule(monkeypatch, cpus, rows, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert matrix._writers(rows) == workers
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert matrix._writers(rows) == workers
    monkeypatch.delattr(os, "fork")
    assert matrix._writers(rows) == 1


@pytest.mark.parametrize("fault", ["first share fails", "second fork fails", "fork warns"])
def test_write_tsv_cleans_up(tmp_path, monkeypatch, fault):
    """Every forked writer is reaped and no share file is left, also when this
    process fails, and Python >= 3.12's fork warning under threads is not an
    error that would lose a forked child."""
    fork, render = os.fork, matrix._write_rows
    forks = []

    def faulty_fork():
        forks.append(1)
        if fault == "second fork fails" and len(forks) == 2:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        pid = fork()
        if pid and fault == "fork warns":
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                          "may lead to deadlocks in the child.", DeprecationWarning)
        return pid

    def failing_first_share(m, lo, hi, fh):
        if lo == 0:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        render(m, lo, hi, fh)

    monkeypatch.setattr(matrix, "_WRITE_BLOCK", 4)
    monkeypatch.setattr(matrix, "_writers", lambda n_rows: 4)
    monkeypatch.setattr(os, "fork", faulty_fork)
    if fault == "first share fails":
        monkeypatch.setattr(matrix, "_write_rows", failing_first_share)
    m = DenseMatrix(np.arange(60.0).reshape(20, 3) / 7)
    if fault == "fork warns":
        write_tsv(m, tmp_path / "m.tsv")
        _write_tsv_reference(m, tmp_path / "ref.tsv")
        assert (tmp_path / "m.tsv").read_bytes() == (tmp_path / "ref.tsv").read_bytes()
    else:
        with pytest.raises(OSError) as exc:
            write_tsv(m, tmp_path / "m.tsv")
        code = errno.ENOSPC if fault == "first share fails" else errno.EAGAIN
        assert (exc.value.errno, exc.value.filename) == (code, tmp_path / "m.tsv")
    assert len(forks) == (2 if fault == "second fork fails" else 3)
    assert sorted(os.listdir(tmp_path)) == (["m.tsv", "ref.tsv"] if fault == "fork warns"
                                            else ["m.tsv"])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_read_edge_floats_exact(tmp_path):
    m = DenseMatrix(np.array([EDGE_FLOATS]), row_labels=("a",),
                    col_labels=tuple(f"c{j}" for j in range(len(EDGE_FLOATS))))
    write_tsv(m, tmp_path / "m.tsv")
    assert read_tsv(tmp_path / "m.tsv").values.tobytes() == m.values.tobytes()


def test_read_skips_blank_lines_and_counts_them_out(tmp_path):
    p = tmp_path / "m.tsv"
    p.write_text("id\ta\tb\n\nr1\t1\t2\n  \nr2\t3\t4\n")
    m = read_tsv(p)
    assert m.row_labels == ("r1", "r2") and m.col_labels == ("a", "b")
    assert m.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    # error line numbers count physical lines, blank ones included
    p.write_text("id\ta\tb\n\nr1\t1\t2\nr2\t3\tx\n")
    with pytest.raises(ValueError, match=r"m.tsv:4: could not convert string to float: 'x'"):
        read_tsv(p)


def test_read_skips_a_leading_byte_order_mark(tmp_path):
    # a UTF-8 BOM, as editors and spreadsheet exports write one, is not data
    p = tmp_path / "m.tsv"
    p.write_bytes(b"\xef\xbb\xbf1\t2\n3\t4\n")
    m = read_tsv(p)
    assert (m.row_labels, m.col_labels) == (None, None)
    assert m.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    p.write_bytes(b"\xef\xbb\xbfid\ta\tb\nr1\t1\t2\nr2\t3\tx\n")
    with pytest.raises(ValueError, match=r"m.tsv:3: could not convert string to float: 'x'"):
        read_tsv(p)
    p.write_bytes(b"\xef\xbb\xbfid\ta\tb\nr1\t1\t2\n")
    assert read_tsv(p).col_labels == ("a", "b")



@pytest.mark.parametrize("bad", [b"\xe9", b"\xc3", b"\xed\xa0\x80"],
                         ids=["latin-1", "truncated", "encoded surrogate"])
def test_read_refuses_text_that_is_not_utf8(tmp_path, bad):
    """The line is found by a second, binary read, so it is right also far
    past the text reader's first decoded chunk, after a BOM and after
    multi-byte characters that do decode."""
    rows = [f"r\u00e9{i}\t{i}\t1" for i in range(5000)]
    body = "\n".join(["id\ta\tb", *rows]).encode() + b"\n"
    lines = body.splitlines(True)
    lines[3999] = lines[3999].replace(b"\t1", b"\t1" + bad, 1)
    p = tmp_path / "m.tsv"
    p.write_bytes(b"\xef\xbb\xbf" + b"".join(lines))
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:4000: not UTF-8 text$"):
        read_tsv(p)


def test_read_ragged_message(tmp_path):
    p = tmp_path / "m.tsv"
    p.write_text("1\t2\n3\t4\t5\n6\n")   # total field count is still 2 per row
    with pytest.raises(ValueError, match=r"m.tsv:2: ragged row \(3 fields, expected 2\)"):
        read_tsv(p)


def test_read_header_width_mismatch(tmp_path):
    p = tmp_path / "m.tsv"
    p.write_text("a\tb\tc\n1\t2\n")
    with pytest.raises(ValueError, match="header has 3 labels for 2 columns"):
        read_tsv(p)


def _read_outcome(path):
    """read_tsv's values, labels or error message, compared as one value."""
    try:
        m = read_tsv(path)
    except ValueError as exc:
        return str(exc)
    return m.values.shape, m.values.tobytes(), m.row_labels, m.col_labels


FIELD_CHARS = " \t\n\x00\x0c\xa0+-._0123456789eEinfatyINFx\u0661\uff11"
NUMBER_FORMATS = [repr, "%.6g".__mod__, "%e".__mod__,
                  lambda x: repr(x) if repr(x)[0] == "-" else "+" + repr(x),
                  lambda x: "%.6fE5" % x]


@st.composite
def tsv_texts(draw):
    """A matrix file as text: any header/label choice, number spellings,
    padding, odd fields, blank lines, line ends and final newline."""
    m = draw(matrices())
    fmt = draw(st.sampled_from(NUMBER_FORMATS))
    pad = draw(st.sampled_from(["", " ", "  "]))
    lines = []
    if m.col_labels is not None:
        lines.append("\t".join((["id"] if m.row_labels else []) + list(m.col_labels)))
    for i, row in enumerate(m.values.tolist()):
        fields = [pad + fmt(x) + pad for x in row]
        lines.append("\t".join(([m.row_labels[i]] if m.row_labels else []) + fields))
    for _ in range(draw(st.integers(0, 2))):   # odd text in place of one field
        i = draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split("\t")
        fields[draw(st.integers(0, len(fields) - 1))] = draw(st.text(FIELD_CHARS, max_size=6))
        lines[i] = "\t".join(fields)
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "", " ", "\t"])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + (end if draw(st.booleans()) else "")


@settings(max_examples=300, deadline=None)
@given(tsv_texts())
@example("h\nr1\n \nr2\n")   # labels only: loadtxt keeps the blank line as a row
def test_read_matches_line_scan(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("eq") / "m.tsv"
    path.write_bytes(text.encode())
    fast = _read_outcome(path)
    with mock.patch.object(matrix, "_load_rows", lambda *args: (None, None)):
        assert _read_outcome(path) == fast   # the scan alone, bit for bit


def test_read_labelled_long_row_is_ragged(tmp_path):
    p = tmp_path / "m.tsv"
    p.write_text("id\ta\tb\nr1\t1\t2\nr2\t3\t4\t5\n")
    with pytest.raises(ValueError, match=r"m.tsv:3: ragged row \(4 fields, expected 3\)"):
        read_tsv(p)


def test_read_float_only_spellings(tmp_path):
    # numpy's reader rejects these; the line scan takes them as float() does
    p = tmp_path / "m.tsv"
    p.write_text("id\ta\tb\nr1\t1_000\t\u0661\n")
    m = read_tsv(p)
    assert m.row_labels == ("r1",) and m.values.tolist() == [[1000.0, 1.0]]


def test_read_memory_bounded(tmp_path):
    n, p = 20_000, 32
    rng = np.random.default_rng(0)
    write_tsv(DenseMatrix(rng.normal(size=(n, p)), row_labels=tuple(f"rs{i}" for i in range(n)),
                          col_labels=tuple(f"s{j}" for j in range(p))), tmp_path / "m.tsv")
    tracemalloc.start()
    try:
        m = read_tsv(tmp_path / "m.tsv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.shape == (n, p)
    assert peak < 3 * m.values.nbytes
