import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lrsd.matrix import DenseMatrix
from lrsd.reporting import (
    SharedSnp,
    SnpReport,
    SpecificSnp,
    embed_studies,
    extract_snps,
    single_linkage_groups,
    write_embedding_tsv,
    write_snp_report,
)
from lrsd.solver import SolverResult


class TestEmbedStudies:
    def test_rank_one_is_collinear(self):
        rng = np.random.default_rng(0)
        X = np.outer(rng.normal(size=30), rng.normal(size=6))
        emb = embed_studies(X, 1)
        assert emb.coordinates.shape == (6, 1)
        # all studies on one line through the origin by construction
        assert emb.singular_values[0] > 0

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
        assert np.array_equal(a.coordinates, b.coordinates)
        for j in range(3):
            col = a.coordinates[:, j]
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
            [np.sign(emb.coordinates[:, j] @ Vt[j, :]) for j in range(r)]
        )
        rebuilt = (U[:, :r] * signs) @ emb.coordinates.T
        assert np.linalg.norm(X - rebuilt) == pytest.approx(tail, abs=1e-8)

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


class TestExtractSnps:
    def test_specific_only(self):
        X = np.zeros((3, 2))
        E = np.zeros((3, 2))
        E[1, 1] = 7.2
        res = _result(X, E, row_labels=("rs1", "rs9", "rs3"), col_labels=("studyA", "studyB"))
        rep = extract_snps(res, 3.0)
        assert rep.shared == ()
        assert len(rep.specific) == 1
        s = rep.specific[0]
        assert (s.snp_id, s.study, s.value) == ("rs9", "studyB", 7.2)

    def test_all_zero_empty(self):
        res = _result(np.zeros((2, 2)), np.zeros((2, 2)))
        rep = extract_snps(res, 0.0)
        assert rep.shared == () and rep.specific == ()

    def test_planted_shared_and_specific(self):
        rows = ("rs1", "rs5", "rs7")
        cols = ("A", "B", "C")
        X = np.zeros((3, 3))
        X[1, 0] = X[1, 1] = 6.0    # rs5 shared over A,B
        E = np.zeros((3, 3))
        E[2, 2] = 6.0              # spike at (rs7, C)
        rep = extract_snps(_result(X, E, rows, cols), 3.0)
        assert [s.snp_id for s in rep.shared] == ["rs5"]
        assert rep.shared[0].studies == ("A", "B")
        assert [(_.snp_id, _.study) for _ in rep.specific] == [("rs7", "C")]

    def test_sorted_by_magnitude(self):
        X = np.zeros((3, 2))
        X[0, 0], X[2, 0] = 4.0, -9.0
        E = np.zeros((3, 2))
        E[0, 1], E[1, 0] = -5.0, 8.0
        rep = extract_snps(_result(X, E), 3.0)
        assert [s.max_magnitude for s in rep.shared] == [9.0, 4.0]
        assert [abs(s.value) for s in rep.specific] == [8.0, 5.0]

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(6, 4)) * 3
        E = rng.normal(size=(6, 4)) * 3
        rows = tuple(f"rs{i}" for i in range(6))
        cols = tuple(f"st{j}" for j in range(4))
        rep = extract_snps(_result(X, E, rows, cols), 2.0)
        pr, pc = rng.permutation(6), rng.permutation(4)
        rep2 = extract_snps(
            _result(
                X[np.ix_(pr, pc)],
                E[np.ix_(pr, pc)],
                tuple(rows[i] for i in pr),
                tuple(cols[j] for j in pc),
            ),
            2.0,
        )
        assert {(s.snp_id, frozenset(s.studies)) for s in rep.shared} == {
            (s.snp_id, frozenset(s.studies)) for s in rep2.shared
        }
        assert {(s.snp_id, s.study, round(s.value, 9)) for s in rep.specific} == {
            (s.snp_id, s.study, round(s.value, 9)) for s in rep2.specific
        }

    def test_negative_threshold(self):
        res = _result(np.zeros((1, 1)), np.zeros((1, 1)))
        with pytest.raises(ValueError):
            extract_snps(res, -1.0)


def _extract_reference(result, T):
    """The per-row loop that `extract_snps` replaced, kept as its oracle."""
    X, E = result.X_hat, result.E_hat
    snp_ids, studies = X.row_labels, X.col_labels
    shared = []
    absX = np.abs(X.values)
    for i in np.where(absX.max(axis=1) > T)[0]:
        cols = np.where(absX[i] > T)[0]
        shared.append(SharedSnp(
            snp_id=snp_ids[i],
            studies=tuple(studies[j] for j in cols),
            magnitudes=tuple(float(X.values[i, j]) for j in cols),
            max_magnitude=float(absX[i].max()),
        ))
    shared.sort(key=lambda s: -s.max_magnitude)
    specific = [
        SpecificSnp(snp_id=snp_ids[i], study=studies[j], value=float(E.values[i, j]))
        for i, j in zip(*np.where(np.abs(E.values) > T))
    ]
    specific.sort(key=lambda s: -abs(s.value))
    return SnpReport(shared=tuple(shared), specific=tuple(specific), threshold=T)


def _write_report_reference(report, shared_path, specific_path):
    with open(shared_path, "w") as fh:
        fh.write("snp\tmax_magnitude\tstudies\tmagnitudes\n")
        for s in report.shared:
            fh.write(
                f"{s.snp_id}\t{s.max_magnitude:.6g}\t"
                f"{','.join(s.studies)}\t{','.join(f'{m:.6g}' for m in s.magnitudes)}\n"
            )
    with open(specific_path, "w") as fh:
        fh.write("snp\tstudy\tvalue\n")
        for s in report.specific:
            fh.write(f"{s.snp_id}\t{s.study}\t{s.value:.6g}\n")


# few distinct magnitudes, so that equal row maxima and equal |E| entries
# (ties the sort must keep in row-major order) are common
tied = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 3.0, -3.0, 1e-300, 7.25])


@settings(max_examples=200, deadline=None)
@given(
    arrays(float, st.tuples(st.integers(1, 15), st.integers(1, 5)), elements=tied),
    arrays(float, st.tuples(st.integers(1, 15), st.integers(1, 5)), elements=tied),
    st.sampled_from([0.0, 1.0, 2.5, 2.9]),
)
def test_extract_snps_matches_per_row_reference(tmp_path_factory, X, E, T):
    E = np.resize(E, X.shape)
    rows = tuple(f"rs{i}" for i in range(X.shape[0]))
    cols = tuple(f"s{j}" for j in range(X.shape[1]))
    result = _result(X, E, rows, cols)
    got, want = extract_snps(result, T), _extract_reference(result, T)
    assert got == want
    d = tmp_path_factory.mktemp("rep")
    write_snp_report(got, d / "shared.tsv", d / "specific.tsv")
    _write_report_reference(want, d / "shared_ref.tsv", d / "specific_ref.tsv")
    assert (d / "shared.tsv").read_bytes() == (d / "shared_ref.tsv").read_bytes()
    assert (d / "specific.tsv").read_bytes() == (d / "specific_ref.tsv").read_bytes()


def test_writers(tmp_path):
    X = np.zeros((2, 2))
    X[0, 0] = 5.0
    E = np.zeros((2, 2))
    E[1, 1] = -4.0
    res = _result(X, E, ("rs1", "rs2"), ("a", "b"))
    rep = extract_snps(res, 1.0)
    write_snp_report(rep, tmp_path / "shared.tsv", tmp_path / "specific.tsv")
    assert (tmp_path / "shared.tsv").read_text().splitlines()[1].startswith("rs1\t5")
    assert (tmp_path / "specific.tsv").read_text().splitlines()[1].startswith("rs2\tb\t-4")

    emb = embed_studies(X + 0.01, 1)
    write_embedding_tsv(emb, tmp_path / "emb.tsv")
    lines = (tmp_path / "emb.tsv").read_text().splitlines()
    assert lines[0] == "study\tc1"
    assert len(lines) == 3
