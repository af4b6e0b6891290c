import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lrsd.matrix import DenseMatrix, as_array, read_tsv, write_tsv


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
    assert as_array(a) is not None
    assert np.array_equal(as_array(DenseMatrix(a)), a)
    with pytest.raises(ValueError):
        as_array(np.ones(3))


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
    # error line numbers count non-blank lines only, as they always have
    p.write_text("id\ta\tb\n\nr1\t1\t2\nr2\t3\tx\n")
    with pytest.raises(ValueError, match=r"m.tsv:3: could not convert string to float: 'x'"):
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
