import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lrsd.metrics import (BenchmarkRow, DetectionReport, benchmark, benchmark_grid, run_cell,
                          score, write_benchmark_tsv)
from lrsd.simulate import PatternSpec


def _score_reference(predicted, truth) -> DetectionReport:
    """The scorer that counted each confusion cell from its own mask."""
    pred = np.asarray(predicted, dtype=bool)
    true = np.asarray(truth, dtype=bool)
    tp = int((pred & true).sum())
    fp = int((pred & ~true).sum())
    fn = int((~pred & true).sum())
    tn = int((~pred & ~true).sum())
    degenerate = False
    if tp + fp > 0:
        precision = tp / (tp + fp)
    else:
        precision, degenerate = 0.0, True
    if tp + fn > 0:
        recall = tp / (tp + fn)
    else:
        recall, degenerate = 0.0, True
    if precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1, degenerate = 0.0, True
    return DetectionReport(tp, fp, fn, tn, precision, recall, f1, degenerate)


def _benchmark_reference(patterns, n_seeds):
    """The benchmark that spelled out each score's mean and std."""
    rows = []
    for spec in patterns:
        reports, snrs = run_cell(spec, n_seeds)
        ps = np.array([r.precision for r in reports])
        rs = np.array([r.recall for r in reports])
        fs = np.array([r.f1 for r in reports])
        rows.append(
            BenchmarkRow(
                pattern_id=spec.pattern_id,
                divisor=spec.signal_divisor,
                snr_mean=float(np.mean(snrs)),
                precision_mean=float(ps.mean()),
                precision_std=float(ps.std(ddof=1)) if len(ps) > 1 else 0.0,
                recall_mean=float(rs.mean()),
                recall_std=float(rs.std(ddof=1)) if len(rs) > 1 else 0.0,
                f1_mean=float(fs.mean()),
                f1_std=float(fs.std(ddof=1)) if len(fs) > 1 else 0.0,
                n_seeds=n_seeds,
            )
        )
    return rows


REFERENCE_COLUMNS = ("pattern", "divisor", "snr_mean", "precision_mean", "precision_std",
                     "recall_mean", "recall_std", "f1_mean", "f1_std")


def _write_benchmark_tsv_reference(rows, path) -> None:
    """The writer that took its columns from a tuple restating the row's fields."""
    with open(path, "w") as fh:
        fh.write("\t".join(REFERENCE_COLUMNS) + "\n")
        for r in rows:
            stats = [f"{getattr(r, c):.4f}" for c in REFERENCE_COLUMNS[2:]]
            fh.write("\t".join([str(r.pattern_id), f"{r.divisor:g}", *stats]) + "\n")


class TestScore:
    def test_perfect_prediction(self):
        truth = np.array([[True, False], [False, True]])
        rep = score(truth, truth)
        assert rep.precision == rep.recall == rep.f1 == 1.0
        assert not rep.degenerate

    def test_direct_formula(self):
        pred = np.zeros(200, dtype=bool)
        truth = np.zeros(200, dtype=bool)
        truth[:100] = True
        pred[:95] = True        # 95 tp, 5 fn
        pred[100:105] = True    # 5 fp
        rep = score(pred.reshape(10, 20), truth.reshape(10, 20))
        assert (rep.tp, rep.fp, rep.fn) == (95, 5, 5)
        assert rep.precision == pytest.approx(0.95)
        assert rep.recall == pytest.approx(0.95)
        assert rep.f1 == pytest.approx(0.95)

    def test_counts_partition_entries(self):
        rng = np.random.default_rng(0)
        pred = rng.random((7, 9)) < 0.3
        truth = rng.random((7, 9)) < 0.3
        rep = score(pred, truth)
        assert rep.tp + rep.fp + rep.fn + rep.tn == 63

    def test_empty_prediction_degenerate(self):
        truth = np.array([[True, False]])
        rep = score(np.zeros((1, 2), dtype=bool), truth)
        assert rep.precision == 0.0 and rep.degenerate

    def test_empty_truth_degenerate(self):
        pred = np.array([[True, False]])
        rep = score(pred, np.zeros((1, 2), dtype=bool))
        assert rep.recall == 0.0 and rep.degenerate

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            score(np.zeros((2, 2), dtype=bool), np.zeros((2, 3), dtype=bool))

    @pytest.mark.parametrize("pred, truth, message", [
        ((2, 2), (2, 3), "predicted is 2 x 2 but truth is 2 x 3"),
        ((4,), (3,), "predicted is 4 but truth is 3"),
        ((6,), (2, 3), "predicted is 6 but truth is 2 x 3"),
        ((2, 2, 2), (2, 2), "predicted is 2 x 2 x 2 but truth is 2 x 2"),
    ])
    def test_shape_mismatch_message(self, pred, truth, message):
        # masks are taken as they come, so the message writes any number of dimensions
        with pytest.raises(ValueError, match=f"^{message}$"):
            score(np.zeros(pred, dtype=bool), np.zeros(truth, dtype=bool))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        pred = rng.random((6, 5)) < 0.4
        truth = rng.random((6, 5)) < 0.4
        perm_r, perm_c = rng.permutation(6), rng.permutation(5)
        a = score(pred, truth)
        b = score(pred[np.ix_(perm_r, perm_c)], truth[np.ix_(perm_r, perm_c)])
        assert (a.tp, a.fp, a.fn, a.tn) == (b.tp, b.fp, b.fn, b.tn)

    @settings(max_examples=60)
    @given(
        hnp.arrays(bool, (4, 5)),
        hnp.arrays(bool, (4, 5)),
    )
    def test_f1_is_harmonic_mean(self, pred, truth):
        rep = score(pred, truth)
        if not rep.degenerate:
            assert min(rep.precision, rep.recall) - 1e-12 <= rep.f1
            assert rep.f1 <= max(rep.precision, rep.recall) + 1e-12


@st.composite
def mask_pairs(draw):
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6))
    return draw(hnp.arrays(bool, shape)), draw(hnp.arrays(bool, shape))


@settings(max_examples=300)
@given(mask_pairs())
def test_score_matches_reference(pair):
    pred, truth = pair
    rep = score(pred, truth)
    assert rep == _score_reference(pred, truth)
    assert all(type(n) is int for n in (rep.tp, rep.fp, rep.fn, rep.tn))


class TestBenchmark:
    def test_zero_seeds_errors(self):
        with pytest.raises(ValueError):
            run_cell(PatternSpec(1), 0)

    def test_small_benchmark_deterministic(self, tmp_path):
        specs = [PatternSpec(1), PatternSpec(1, signal_divisor=1.5)]
        rows1 = benchmark(specs, 2)
        rows2 = benchmark(specs, 2)
        assert rows1 == rows2
        assert rows1[0].snr_mean > rows1[1].snr_mean
        assert rows1[0].n_seeds == 2
        write_benchmark_tsv(rows1, tmp_path / "bench.tsv")
        lines = (tmp_path / "bench.tsv").read_text().splitlines()
        assert lines[0].startswith("pattern\tdivisor")
        assert len(lines) == 3

    def test_benchmark_tsv_matches_reference_bytes(self, tmp_path):
        grid = benchmark_grid(0)[:3]
        rows = benchmark(grid, 2)
        assert rows == _benchmark_reference(grid, 2)
        write_benchmark_tsv(rows, tmp_path / "new.tsv")
        _write_benchmark_tsv_reference(_benchmark_reference(grid, 2), tmp_path / "ref.tsv")
        assert (tmp_path / "new.tsv").read_bytes() == (tmp_path / "ref.tsv").read_bytes()
