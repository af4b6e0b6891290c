import io
import re
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lrsd import matrix
from lrsd.cli import main
from lrsd.matrix import DenseMatrix, write_tsv
from lrsd.reporting import embed_studies, write_snp_report
from lrsd.solver import SolverResult, detect
from reference import single_linkage_groups


class TestEmbedStudies:
    @pytest.mark.parametrize("r", [1.5, 1.0, "1", None])
    def test_non_integer_rank_refused_before_the_svd(self, r):
        X = np.outer(np.arange(1, 6, dtype=float), np.arange(1, 5, dtype=float))
        fail = dict(side_effect=AssertionError("SVD called"))
        message = re.escape(f"embedding rank must be an integer in 1..4, got {r!r}")
        with mock.patch.object(np.linalg, "svd", **fail), \
                mock.patch.object(np.linalg, "qr", **fail), \
                pytest.raises(ValueError, match=f"^{message}$"):
            embed_studies(X, r)

    def test_rank_one_is_collinear(self):
        rng = np.random.default_rng(0)
        X = np.outer(rng.normal(size=30), rng.normal(size=6))
        emb = embed_studies(X, 1)
        assert emb.values.shape == (6, 1)
        # all studies on one line through the origin by construction
        assert np.linalg.norm(emb.values[:, 0]) > 0

    def test_zero_matrix_errors(self):
        with pytest.raises(ValueError, match="rank"):
            embed_studies(np.zeros((5, 4)), 1)

    def test_r_exceeding_rank_errors(self):
        X = np.outer(np.arange(1, 6, dtype=float), np.ones(4))
        with pytest.raises(ValueError, match="numerical rank"):
            embed_studies(X, 2)

    def test_sign_canonicalization_deterministic(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 5)) @ np.diag([5, 3, 1, 0.5, 0.1])
        a = embed_studies(X, 3)
        b = embed_studies(-X if False else X.copy(), 3)
        assert np.array_equal(a.values, b.values)
        for j in range(3):
            col = a.values[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_reconstruction_error_equals_tail(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 8))
        r = 3
        emb = embed_studies(X, r)
        U, s, Vt = np.linalg.svd(X, full_matrices=False)
        tail = np.sqrt((s[r:] ** 2).sum())
        # undo the per-column sign canonicalization, then rebuild rank-r
        signs = np.array(
            [np.sign(emb.values[:, j] @ Vt[j, :]) for j in range(r)]
        )
        rebuilt = (U[:, :r] * signs) @ emb.values.T
        assert np.linalg.norm(X - rebuilt) == pytest.approx(tail, abs=1e-8)

    def test_memory_bounded(self):
        # the singular pairs come from the blocks' stacked R factors: no n x p U
        rng = np.random.default_rng(4)
        X = DenseMatrix(rng.normal(size=(60_000, 2)) @ rng.normal(size=(2, 32)))
        tracemalloc.start()
        try:
            emb = embed_studies(X, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert emb.values.shape == (32, 2)
        assert peak < 0.25 * X.values.nbytes

    def test_planted_clusters_recovered(self):
        # 3 groups of studies built from 3 orthogonal study-side factors
        rng = np.random.default_rng(3)
        n_snps, per_group = 200, 4
        groups = np.repeat([0, 1, 2], per_group)
        V = np.zeros((12, 3))
        for g in range(3):
            V[groups == g, g] = 1.0
        V += 0.01 * rng.normal(size=V.shape)
        U, _ = np.linalg.qr(rng.normal(size=(n_snps, 3)))
        X = U @ np.diag([50, 40, 30]) @ V.T
        emb = embed_studies(DenseMatrix(X, col_labels=tuple(f"s{i}" for i in range(12))), 3)
        labels = single_linkage_groups(emb, radius=15.0)
        by_group = {}
        for lab, g in zip(labels, groups):
            by_group.setdefault(g, set()).add(lab)
        # each planted group maps to exactly one recovered label, all distinct
        assert all(len(v) == 1 for v in by_group.values())
        assert len({next(iter(v)) for v in by_group.values()}) == 3


def _result(X, E, row_labels=None, col_labels=None):
    return SolverResult(
        X_hat=DenseMatrix(X, row_labels=row_labels, col_labels=col_labels),
        E_hat=DenseMatrix(E, row_labels=row_labels, col_labels=col_labels),
        objective_trace=(0.0,),
        iterations_used=0,
        converged=True,
        rank_of_X=int(np.linalg.matrix_rank(X)),
        nnz_of_E=int(np.count_nonzero(E)),
    )


def _report(result, T, d):
    """The data lines of both written reports, split on tabs; checks the returned counts."""
    counts = write_snp_report(result, d / "shared.tsv", d / "specific.tsv", T)
    shared, specific = (
        [line.split("\t") for line in (d / name).read_text().splitlines()[1:]]
        for name in ("shared.tsv", "specific.tsv")
    )
    assert counts == (len(shared), len(specific))
    return shared, specific


class TestExtractSnps:
    """The SNP calls that `write_snp_report` extracts, read back from its files."""

    def test_specific_only(self, tmp_path):
        X = np.zeros((3, 2))
        E = np.zeros((3, 2))
        E[1, 1] = 7.2
        res = _result(X, E, row_labels=("rs1", "rs9", "rs3"), col_labels=("studyA", "studyB"))
        shared, specific = _report(res, 3.0, tmp_path)
        assert shared == []
        assert specific == [["rs9", "studyB", "7.2"]]

    def test_all_zero_empty(self, tmp_path):
        res = _result(np.zeros((2, 2)), np.zeros((2, 2)))
        counts = write_snp_report(res, tmp_path / "shared.tsv", tmp_path / "specific.tsv", 0.0)
        assert counts == (0, 0)
        assert (tmp_path / "shared.tsv").read_text() == "snp\tmax_magnitude\tstudies\tmagnitudes\n"
        assert (tmp_path / "specific.tsv").read_text() == "snp\tstudy\tvalue\n"

    def test_planted_shared_and_specific(self, tmp_path):
        rows = ("rs1", "rs5", "rs7")
        cols = ("A", "B", "C")
        X = np.zeros((3, 3))
        X[1, 0] = X[1, 1] = 6.0    # rs5 shared over A,B
        E = np.zeros((3, 3))
        E[2, 2] = 6.0              # spike at (rs7, C)
        shared, specific = _report(_result(X, E, rows, cols), 3.0, tmp_path)
        assert shared == [["rs5", "6", "A,B", "6,6"]]
        assert specific == [["rs7", "C", "6"]]

    def test_sorted_by_magnitude(self, tmp_path):
        X = np.zeros((3, 2))
        X[0, 0], X[2, 0] = 4.0, -9.0
        E = np.zeros((3, 2))
        E[0, 1], E[1, 0] = -5.0, 8.0
        shared, specific = _report(_result(X, E), 3.0, tmp_path)
        # unlabelled rows and columns are named row{i} and col{j}
        assert [(s[0], float(s[1])) for s in shared] == [("row2", 9.0), ("row0", 4.0)]
        assert specific == [["row1", "col0", "8"], ["row0", "col1", "-5"]]

    def test_permutation_invariance(self, tmp_path):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(6, 4)) * 3
        E = rng.normal(size=(6, 4)) * 3
        rows = tuple(f"rs{i}" for i in range(6))
        cols = tuple(f"st{j}" for j in range(4))
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        shared, specific = _report(_result(X, E, rows, cols), 2.0, tmp_path / "a")
        pr, pc = rng.permutation(6), rng.permutation(4)
        shared2, specific2 = _report(
            _result(
                X[np.ix_(pr, pc)],
                E[np.ix_(pr, pc)],
                tuple(rows[i] for i in pr),
                tuple(cols[j] for j in pc),
            ),
            2.0,
            tmp_path / "b",
        )
        assert shared  # the comparison below is not between two empty reports
        assert {(s[0], frozenset(s[2].split(","))) for s in shared} == {
            (s[0], frozenset(s[2].split(","))) for s in shared2
        }
        assert {tuple(s) for s in specific} == {tuple(s) for s in specific2}

    def test_negative_threshold(self, tmp_path):
        res = _result(np.zeros((1, 1)), np.zeros((1, 1)))
        for T in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="threshold must be finite and >= 0"):
                write_snp_report(res, tmp_path / "shared.tsv", tmp_path / "specific.tsv", T)
            assert list(tmp_path.iterdir()) == []   # raised before either file exists


def _extract_reference(result, T):
    """The per-row loop of the former `extract_snps`, kept as the report's oracle.

    Returns shared calls as (snp, studies, magnitudes, max magnitude) and
    specific calls as (snp, study, value), each sorted by magnitude.
    """
    X, E = result.X_hat, result.E_hat
    snp_ids = X.row_labels or tuple(f"row{i}" for i in range(X.shape[0]))
    studies = X.col_labels or tuple(f"col{j}" for j in range(X.shape[1]))
    shared = []
    absX = np.abs(X.values)
    for i in np.where(absX.max(axis=1) > T)[0]:
        cols = np.where(absX[i] > T)[0]
        shared.append((
            snp_ids[i],
            tuple(studies[j] for j in cols),
            tuple(float(X.values[i, j]) for j in cols),
            float(absX[i].max()),
        ))
    shared.sort(key=lambda s: -s[3])
    specific = [
        (snp_ids[i], studies[j], float(E.values[i, j]))
        for i, j in zip(*np.where(np.abs(E.values) > T))
    ]
    specific.sort(key=lambda s: -abs(s[2]))
    return shared, specific


def _write_report_reference(shared, specific, shared_path, specific_path):
    with open(shared_path, "w") as fh:
        fh.write("snp\tmax_magnitude\tstudies\tmagnitudes\n")
        for snp, studies, magnitudes, peak in shared:
            fh.write(
                f"{snp}\t{peak:.6g}\t"
                f"{','.join(studies)}\t{','.join(f'{m:.6g}' for m in magnitudes)}\n"
            )
    with open(specific_path, "w") as fh:
        fh.write("snp\tstudy\tvalue\n")
        for snp, study, value in specific:
            fh.write(f"{snp}\t{study}\t{value:.6g}\n")


# few distinct magnitudes, so that equal row maxima and equal |E| entries
# (ties the sort must keep in row-major order) are common
tied = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 3.0, -3.0, 1e-300, 7.25])


@settings(max_examples=200, deadline=None)
@given(
    arrays(float, st.tuples(st.integers(1, 15), st.integers(1, 5)), elements=tied),
    arrays(float, st.tuples(st.integers(1, 15), st.integers(1, 5)), elements=tied),
    st.sampled_from([0.0, 1.0, 2.5, 2.9]),
    st.booleans(),
    st.integers(1, 16),   # report lines per formatting block
    st.integers(1, 4),    # writer processes, forced
)
def test_extract_snps_matches_per_row_reference(tmp_path_factory, X, E, T, labelled, block,
                                                workers):
    E = np.resize(E, X.shape)
    rows = tuple(f"rs{i}" for i in range(X.shape[0])) if labelled else None
    cols = tuple(f"s{j}" for j in range(X.shape[1])) if labelled else None
    result = _result(X, E, rows, cols)
    d = tmp_path_factory.mktemp("rep")
    with mock.patch.object(matrix, "_WRITE_BLOCK", block), \
            mock.patch.object(matrix, "_writers", lambda n_items: workers):
        counts = write_snp_report(result, d / "shared.tsv", d / "specific.tsv", T)
    shared, specific = _extract_reference(result, T)
    _write_report_reference(shared, specific, d / "shared_ref.tsv", d / "specific_ref.tsv")
    assert counts == (len(shared), len(specific))
    assert (d / "shared.tsv").read_bytes() == (d / "shared_ref.tsv").read_bytes()
    assert (d / "specific.tsv").read_bytes() == (d / "specific_ref.tsv").read_bytes()


@settings(max_examples=150, deadline=None)
@given(
    arrays(float, st.tuples(st.integers(1, 8), st.integers(1, 4)), elements=tied),
    arrays(float, st.tuples(st.integers(1, 8), st.integers(1, 4)), elements=tied),
    tied,
)
def test_every_consumer_makes_the_same_calls(tmp_path_factory, X, E, T):
    """shared.tsv, specific.tsv, `detect` and `lrsd evaluate --x --e` call the
    same entries: |X| > T and |E| > T, with entries equal to T, zeros of
    either sign and negatives; a negative T is refused by all alike."""
    E = np.resize(E, X.shape)
    rows = tuple(f"rs{i}" for i in range(X.shape[0]))
    cols = tuple(f"s{j}" for j in range(X.shape[1]))
    result = _result(X, E, rows, cols)
    d = tmp_path_factory.mktemp("calls")
    for name, m in (("X", X), ("E", E)):
        write_tsv(DenseMatrix(m), d / f"{name}.tsv")
    evaluate = ["evaluate", "--x", str(d / "X.tsv"), "--e", str(d / "E.tsv"),
                "--truth", str(d / "truth.tsv"), f"--threshold={T!r}"]
    if T < 0:
        message = f"threshold must be finite and >= 0, got {T!r}"
        for call in (lambda: detect(result, T), lambda: _report(result, T, d)):
            with pytest.raises(ValueError, match=re.escape(message)):
                call()
        with redirect_stderr(io.StringIO()) as err:
            assert main(evaluate) == 2
        assert err.getvalue() == f"error: {message}\n"
        return

    def cells(mask):
        return {(rows[i], cols[j]) for i, j in zip(*np.nonzero(mask))}

    shared, specific = _report(result, T, d)
    x_calls = {(snp, study) for snp, _, called, _ in shared for study in called.split(",")}
    e_calls = {(snp, study) for snp, study, _ in specific}
    assert x_calls == cells(np.abs(X) > T)
    assert e_calls == cells(np.abs(E) > T)
    mask = detect(result, T)
    assert x_calls | e_calls == cells(mask)

    write_tsv(DenseMatrix(mask.astype(float)), d / "truth.tsv")
    with redirect_stdout(io.StringIO()) as out:
        assert main(evaluate) == 0
    assert "\tfp 0\tfn 0\t" in out.getvalue()


def test_writers(tmp_path):
    X = np.zeros((2, 2))
    X[0, 0] = 5.0
    E = np.zeros((2, 2))
    E[1, 1] = -4.0
    res = _result(X, E, ("rs1", "rs2"), ("a", "b"))
    assert write_snp_report(res, tmp_path / "shared.tsv", tmp_path / "specific.tsv", 1.0) == (1, 1)
    assert (tmp_path / "shared.tsv").read_text().splitlines()[1].startswith("rs1\t5")
    assert (tmp_path / "specific.tsv").read_text().splitlines()[1].startswith("rs2\tb\t-4")

    emb = embed_studies(X + 0.01, 1)
    write_tsv(emb, tmp_path / "emb.tsv")
    lines = (tmp_path / "emb.tsv").read_text().splitlines()
    assert lines[0] == "id\tc1"
    assert len(lines) == 3


def test_unlabelled_studies_named_alike_in_both_files(tmp_path):
    # the embedding and the SNP report name an unlabelled X's studies col0, col1, ...
    X = np.outer([3.0, 2.0, 1.0], [1.0, 2.0])
    res = _result(X, np.zeros((3, 2)))
    shared, _ = _report(res, 0.5, tmp_path)
    write_tsv(embed_studies(res.X_hat, 1), tmp_path / "emb.tsv")
    embedded = [line.split("\t")[0] for line in
                (tmp_path / "emb.tsv").read_text().splitlines()[1:]]
    assert embedded == ["col0", "col1"]
    assert {s for row in shared for s in row[2].split(",")} == set(embedded)
