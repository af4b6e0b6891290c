import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lrsd import simulate
from lrsd.matrix import DenseMatrix, read_tsv
from lrsd.simulate import PatternSpec, compute_snr, factor_vectors, generate, save_instance


class TestFactorVectors:
    def test_unit_norms(self):
        for x in factor_vectors():
            assert np.linalg.norm(x) == pytest.approx(1.0)

    def test_lengths_and_supports(self):
        u1, v1, u2, v2 = factor_vectors()
        assert (len(u1), len(v1), len(u2), len(v2)) == (100, 50, 100, 50)
        assert np.count_nonzero(u1) == 25
        assert np.count_nonzero(v1) == 16
        assert np.count_nonzero(u2) == 25
        assert np.count_nonzero(v2) == 16

    def test_v2_placement(self):
        _, _, _, v2 = factor_vectors()
        assert np.all(v2[:9] == 0)
        assert np.all(v2[9:25] != 0)
        assert np.all(v2[25:] == 0)


class TestComputeSnr:
    def test_constant_signal(self):
        sig = np.zeros((10, 10))
        sig[:3, :4] = 6.0
        assert compute_snr(sig) == pytest.approx(6.0)

    def test_pattern1_exact(self):
        u1, v1, _, _ = factor_vectors()
        sig = 50.0 * np.outer(u1, v1)
        # Frobenius norm 50 over a 25x16 support
        assert compute_snr(sig) == pytest.approx(np.sqrt(2500 / 400), abs=1e-12)

    def test_all_zero_errors(self):
        with pytest.raises(ValueError):
            compute_snr(np.zeros((3, 3)))


# sha256 of data and truth_signal bytes at divisor 1.2, seed 3, recorded
# when the fixed simulation values were still PatternSpec fields
GOLDEN_SHA256 = {
    1: ("9d9c04575263d9c8d105323dd40adc4344e243a6a1fafa8e8b8f86829731e36a",
        "6e3f00f06ed3ce295cf6ae8cc0397d7851a5e363a15ee959bb4daf32169ddd77"),
    2: ("af9fffd9ef45cee59d5d67018f7e3d8194c5907f6b32bce38e11cea7ac1d3be1",
        "0a912beeec4f16bd60b3614719afbbaffcff556bb953c0ccc0fb0fff6e1f9030"),
    3: ("875faa3653338b2fc413917a4f748c6c62158edaed0ca0fdbb0fea253750756b",
        "cd0cb9d7265c3ffd26025da762f78a3cbf420a1ad1eff43aaf23f73c0964a673"),
    4: ("9b2ec2b35ea61f7bde6fb2e0207b590a835b831c73d91de3d66961d2a19a43d8",
        "8bd7971f242ddd65abd64c902f6bc4d12711cec97d3cdb095dc56a4eedaeca18"),
}


class TestGenerate:
    def test_invalid_pattern(self):
        with pytest.raises(ValueError):
            PatternSpec(pattern_id=9)

    def test_spec_holds_only_what_the_benchmark_varies(self):
        names = [f.name for f in dataclasses.fields(PatternSpec)]
        assert names == ["pattern_id", "signal_divisor", "seed"]

    @pytest.mark.parametrize("pattern", [1, 2, 3, 4])
    def test_golden_bytes(self, pattern):
        inst = generate(PatternSpec(pattern, signal_divisor=1.2, seed=3))
        digests = tuple(hashlib.sha256(m.values.tobytes()).hexdigest()
                        for m in (inst.data, inst.truth_signal))
        assert digests == GOLDEN_SHA256[pattern]

    def test_pattern1_support_and_snr(self):
        inst = generate(PatternSpec(1, seed=0))
        assert inst.truth_mask.sum() == 400
        assert inst.snr == pytest.approx(2.5)

    def test_pattern3_snr_by_divisor(self):
        for div, target in [(1.0, 2.6), (1.2, 2.2), (1.5, 1.8)]:
            inst = generate(PatternSpec(3, signal_divisor=div, seed=0))
            assert inst.snr == pytest.approx(target, abs=0.05)

    def test_pattern4_snr(self):
        snrs = [generate(PatternSpec(4, seed=s)).snr for s in range(20)]
        assert np.mean(snrs) == pytest.approx(2.9, abs=0.15)

    def test_reproducible(self):
        a = generate(PatternSpec(2, seed=11))
        b = generate(PatternSpec(2, seed=11))
        assert np.array_equal(a.data.values, b.data.values)
        assert np.array_equal(a.row_perm, b.row_perm)

    def test_mask_matches_signal_support(self):
        inst = generate(PatternSpec(4, seed=3))
        assert np.array_equal(inst.truth_mask, inst.truth_signal.values != 0)

    def test_data_is_signal_plus_noise(self):
        inst = generate(PatternSpec(3, seed=5))
        noise = inst.data.values - inst.truth_signal.values
        # pure N(0,1) residual
        assert abs(noise.mean()) < 0.1
        assert abs(noise.std() - 1.0) < 0.1

    def test_unshuffle_recovers_block_structure(self):
        inst = generate(PatternSpec(1, seed=9))
        unshuffled = np.empty_like(inst.truth_signal.values)
        unshuffled[np.ix_(inst.row_perm, inst.col_perm)] = inst.truth_signal.values
        u1, v1, _, _ = factor_vectors()
        assert np.allclose(unshuffled, 50.0 * np.outer(u1, v1))

    def test_pattern_nesting(self):
        for base, ext in [(1, 2), (3, 4)]:
            a = generate(PatternSpec(base, seed=21, signal_divisor=1.2))
            b = generate(PatternSpec(ext, seed=21, signal_divisor=1.2))
            diff = b.truth_signal.values - a.truth_signal.values
            vals = np.unique(diff)
            assert np.all(np.isclose(vals, 0.0) | np.isclose(vals, 6.0 / 1.2))
            assert np.array_equal(a.row_perm, b.row_perm)

    def test_snr_monotone_in_divisor(self):
        for seed in range(5):
            snrs = [
                generate(PatternSpec(2, seed=seed, signal_divisor=d)).snr
                for d in (1.0, 1.2, 1.5)
            ]
            assert snrs[0] > snrs[1] > snrs[2]

    def test_shuffle_invariant_mask_cardinality(self):
        counts = {generate(PatternSpec(3, seed=s)).truth_mask.sum() for s in range(5)}
        assert len(counts) == 1


def _generate_reference(spec):
    """`generate` as first written, with nothing cached: the factor vectors on
    every call, three generators from `SeedSequence.spawn`, and `np.ix_`."""
    u1, v1, u2, v2 = factor_vectors()
    M = simulate.BICLUSTER_SCALE * np.outer(u1, v1)
    if spec.pattern_id >= 3:
        M = M + simulate.BICLUSTER_SCALE * np.outer(u2, v2)
    ss = np.random.SeedSequence(spec.seed)
    rng_sparse, rng_perm, rng_noise = (np.random.default_rng(s) for s in ss.spawn(3))
    if spec.pattern_id in (2, 4):
        spikes = rng_sparse.random((simulate.N_ROWS, simulate.N_COLS)) < simulate.SPARSE_PROB
        M = M + simulate.SPARSE_VALUE * spikes
    M = M / spec.signal_divisor
    row_perm = rng_perm.permutation(simulate.N_ROWS)
    col_perm = rng_perm.permutation(simulate.N_COLS)
    M = M[np.ix_(row_perm, col_perm)]
    noise = rng_noise.normal(0.0, simulate.NOISE_SIGMA, M.shape)
    return simulate.SimulatedInstance(
        data=DenseMatrix(M + noise), truth_signal=DenseMatrix(M), truth_mask=M != 0,
        row_perm=row_perm, col_perm=col_perm, snr=compute_snr(M), spec=spec)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4),
       st.one_of(st.sampled_from([1.0, 1.2, 1.5]), st.floats(1.0, 50.0)),
       st.integers(0, 2**63))
@example(4, 1.2, 3)
@example(1, 50.0, 2**63)
def test_generate_matches_the_uncached_reference_bit_for_bit(pattern, divisor, seed):
    spec = PatternSpec(pattern, divisor, seed)
    got, want = generate(spec), _generate_reference(spec)
    # bytes, so a -0.0 where the reference has 0.0 would fail
    assert got.data.values.tobytes() == want.data.values.tobytes()
    assert got.truth_signal.values.tobytes() == want.truth_signal.values.tobytes()
    assert np.array_equal(got.truth_mask, want.truth_mask)
    assert np.array_equal(got.row_perm, want.row_perm)
    assert np.array_equal(got.col_perm, want.col_perm)
    assert got.snr == want.snr
    for a in (got.data.values, got.truth_signal.values, got.truth_mask):
        assert a.flags.c_contiguous


def test_writing_into_factor_vectors_leaves_generate_unchanged():
    spec = PatternSpec(3, 1.2, 5)
    before = generate(spec).data.values.tobytes()
    for x in factor_vectors():
        x[:] = 7.0
    assert generate(spec).data.values.tobytes() == before


@pytest.mark.parametrize("base", ["_ONE_BICLUSTER", "_TWO_BICLUSTERS"])
def test_cached_bases_are_read_only(base):
    with pytest.raises(ValueError, match="read-only"):
        getattr(simulate, base)[0, 0] = 1.0


def test_save_load_roundtrip(tmp_path):
    inst = generate(PatternSpec(4, seed=2, signal_divisor=1.5))
    save_instance(inst, tmp_path / "inst")
    assert read_tsv(tmp_path / "inst" / "data.tsv").values.tobytes() == inst.data.values.tobytes()
    truth = read_tsv(tmp_path / "inst" / "truth.tsv").values
    assert truth.tobytes() == inst.truth_signal.values.tobytes()
    mask = read_tsv(tmp_path / "inst" / "mask.tsv").values
    assert np.array_equal(mask.astype(bool), inst.truth_mask)
    meta = dict(line.split("=", 1)
                for line in (tmp_path / "inst" / "meta.txt").read_text().splitlines())
    assert list(meta) == ["pattern", "d", "sparse_prob", "sparse_value", "noise_sigma",
                          "divisor", "seed", "snr", "row_perm", "col_perm"]
    assert np.array_equal(np.array(meta["row_perm"].split(","), dtype=int), inst.row_perm)
    assert np.array_equal(np.array(meta["col_perm"].split(","), dtype=int), inst.col_perm)
    assert float(meta["snr"]) == inst.snr
    assert PatternSpec(int(meta["pattern"]), float(meta["divisor"]), int(meta["seed"])) == inst.spec
    assert (meta["d"], meta["sparse_prob"], meta["sparse_value"], meta["noise_sigma"]) == (
        "50.0", "0.01", "6.0", "1.0")
