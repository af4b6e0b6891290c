import errno
import hashlib
import math
import os
import random

import numpy as np
import pytest

from lrsd import matrix
from lrsd.cli import main
from lrsd.matrix import DenseMatrix, read_tsv, write_tsv
from lrsd.metrics import score
from lrsd.simulate import PatternSpec, generate
from lrsd.solver import auto_config, detect, solve


def _read_manifest(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


class TestSimulate:
    def test_writes_instance(self, tmp_path, capsys):
        rc = main(["simulate", "--pattern", "1", "--seed", "7", "--out", str(tmp_path / "sim1")])
        assert rc == 0
        assert (tmp_path / "sim1" / "data.tsv").exists()
        out = capsys.readouterr().out
        assert "SNR = 2.5" in out

    def test_divisor_lowers_snr(self, tmp_path, capsys):
        rc = main(["simulate", "--pattern", "3", "--divisor", "1.5",
                   "--out", str(tmp_path / "s")])
        assert rc == 0
        snr = float(capsys.readouterr().out.split("SNR = ")[1].split()[0])
        assert snr == pytest.approx(1.8, abs=0.1)

    def test_bad_pattern_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--pattern", "9"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("case", ["divisor", "nan divisor", "inf divisor", "seed", "out"])
    def test_bad_input_exits_2(self, tmp_path, capsys, case):
        out, _ = _unwritable_out(tmp_path, "out")
        flags, err = {
            "divisor": (["--divisor", "0.5"],
                        "error: signal_divisor must be finite and >= 1, got 0.5\n"),
            "nan divisor": (["--divisor", "nan"],
                            "error: signal_divisor must be finite and >= 1, got nan\n"),
            "inf divisor": (["--divisor", "inf"],
                            "error: signal_divisor must be finite and >= 1, got inf\n"),
            "seed": (["--seed", "-1"], "error: seed must be >= 0, got -1\n"),
            "out": (["--out", str(out)], f"error: cannot write {out}: {os.strerror(errno.ENOTDIR)}\n"),
        }[case]
        rc = main(["simulate", "--pattern", "1", "--out", str(tmp_path / "sim"), *flags])
        assert rc == 2
        captured = capsys.readouterr()
        assert (captured.err, captured.out) == (err, "")


class TestDecompose:
    def test_zero_matrix(self, tmp_path):
        src = tmp_path / "zero.tsv"
        write_tsv(DenseMatrix(np.zeros((5, 4))), src)
        rc = main(["decompose", "--input", str(src), "--alpha", "1", "--beta", "1",
                   "--threshold", "0.5", "--out", str(tmp_path / "dec")])
        assert rc == 0
        X = read_tsv(tmp_path / "dec" / "X.tsv")
        assert np.array_equal(X.values, np.zeros((5, 4)))
        mani = _read_manifest(tmp_path / "dec" / "manifest.txt")
        assert mani["iterations_used"] == "1"
        assert mani["converged"] == "True"

    def test_constant_matrix_degenerate(self, tmp_path, capsys):
        src = tmp_path / "const.tsv"
        write_tsv(DenseMatrix(np.full((4, 4), 2.0)), src)
        rc = main(["decompose", "--input", str(src), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "alpha and beta" in capsys.readouterr().err

    def test_unreadable_input(self, tmp_path, capsys):
        src = tmp_path / "bad.tsv"
        src.write_text("1\t2\n3\n")
        rc = main(["decompose", "--input", str(src), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert ":2" in capsys.readouterr().err

    @pytest.mark.parametrize("blocked", ["out", "X.tsv", "trace.tsv", "manifest.txt"])
    def test_unwritable_out(self, tmp_path, capsys, blocked):
        src = tmp_path / "m.tsv"
        write_tsv(DenseMatrix(np.eye(4)), src)
        out, named = _unwritable_out(tmp_path, blocked)
        rc = main(["decompose", "--input", str(src), "--alpha", "1", "--beta", "1",
                   "--threshold", "0.5", "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {named}: ")
        assert captured.out == ""

    @pytest.mark.parametrize("flag, value, named", [
        ("--beta", "nan", "alpha and beta"),
        ("--alpha", "nan", "alpha and beta"),
        ("--alpha", "inf", "alpha and beta"),
        ("--tol", "nan", "rel_tolerance"),
        ("--threshold", "nan", "detection_threshold"),
    ])
    def test_non_finite_parameter_exits_2(self, tmp_path, capsys, flag, value, named):
        src = tmp_path / "m.tsv"
        write_tsv(DenseMatrix(SMALL), src)
        out = tmp_path / "o"
        rc = main(["decompose", "--input", str(src), flag, value, "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {named} must be finite")
        assert captured.out == ""
        assert not (out / "X.tsv").exists()

    def test_iteration_cap_exit_3_with_outputs(self, tmp_path):
        rng = np.random.default_rng(0)
        src = tmp_path / "d.tsv"
        write_tsv(DenseMatrix(rng.normal(size=(20, 10)) * 5), src)
        rc = main(["decompose", "--input", str(src), "--max-iter", "1",
                   "--alpha", "1", "--beta", "0.5", "--out", str(tmp_path / "o")])
        assert rc == 3
        assert (tmp_path / "o" / "X.tsv").exists()
        assert (tmp_path / "o" / "trace.tsv").exists()

    def test_manifest_records_rules(self, tmp_path):
        inst = generate(PatternSpec(1, seed=0))
        src = tmp_path / "d.tsv"
        write_tsv(inst.data, src)
        rc = main(["decompose", "--input", str(src), "--out", str(tmp_path / "o")])
        assert rc == 0
        mani = _read_manifest(tmp_path / "o" / "manifest.txt")
        assert "rule" in mani["alpha"]
        assert "sigma_hat" in mani
        assert float(mani["duration_s"]) >= 0
        _assert_stage_times(mani, ["read", "solve", "write"])


def _assert_stage_times(mani, stages):
    """One time_<stage>_s per stage, in run order, each at most duration_s."""
    times = [key for key in mani if key.startswith("time_")]
    assert times == [f"time_{stage}_s" for stage in stages]
    assert list(mani)[-1] == "duration_s"
    for key in times:
        assert mani[key] == f"{float(mani[key]):.3f}"
        assert 0 <= float(mani[key]) <= float(mani["duration_s"])


SMALL = np.array([
    [0.3, -1.2, 2.5, 0.0],
    [1.1, 0.4, -0.7, 3.2],
    [-0.9, 2.2, 0.6, -0.1],
    [0.5, -0.3, 1.8, 0.9],
    [2.7, 0.2, -1.5, 0.4],
    [-0.4, 1.3, 0.1, -2.1],
])
SIGMA_RULE = "sigma_hat=1.1099999999999999 (rule: 1.48*MAD)"
ALPHA_RULE = "alpha=4.9389336144893266 (rule: (sqrt(n)+sqrt(p))*sigma_hat)"
BETA_RULE = "beta=4.0326224096595515 (rule: 2*alpha/sqrt(max(n,p)))"
T_RULE = "threshold=0.33299999999999996 (rule: 0.3*sigma_hat)"


@pytest.mark.parametrize(
    "flags, lines",
    [
        ([], [SIGMA_RULE, ALPHA_RULE, BETA_RULE, T_RULE]),
        # a missing beta follows the rule alpha, not the flag, and says so
        (["--alpha", "2"],
         [SIGMA_RULE, "alpha=2.0 (flag)",
          "beta=4.0326224096595515 (rule: 2*alpha/sqrt(max(n,p)) with rule alpha=4.9389336144893266)",
          T_RULE]),
        (["--alpha", "2", "--beta", "1"],
         [SIGMA_RULE, "alpha=2.0 (flag)", "beta=1.0 (flag)", T_RULE]),
        (["--alpha", "2", "--beta", "1", "--threshold", "0.5"],
         ["alpha=2.0 (flag)", "beta=1.0 (flag)", "threshold=0.5 (flag)"]),
    ],
)
def test_manifest_parameter_provenance(tmp_path, flags, lines):
    src = tmp_path / "small.tsv"
    write_tsv(DenseMatrix(SMALL), src)
    rc = main(["decompose", "--input", str(src), *flags, "--out", str(tmp_path / "o")])
    assert rc == 0
    keys = ("sigma_hat=", "alpha=", "beta=", "threshold=")
    manifest = (tmp_path / "o" / "manifest.txt").read_text().splitlines()
    assert [ln for ln in manifest if ln.startswith(keys)] == lines


def _unwritable_out(tmp_path, blocked):
    """An --out path with one output made unwritable, and the path the error must name.

    "out" puts a regular file where the parent of --out should be a
    directory; any other name puts a directory where that output file goes.
    """
    if blocked == "out":
        (tmp_path / "f").write_text("")
        return tmp_path / "f" / "x", tmp_path / "f" / "x"
    (tmp_path / "o" / blocked).mkdir(parents=True)
    return tmp_path / "o", tmp_path / "o" / blocked


class TestEvaluate:
    def test_perfect_fixture(self, tmp_path, capsys):
        mask = DenseMatrix(np.eye(4))
        write_tsv(mask, tmp_path / "mask.tsv")
        write_tsv(mask, tmp_path / "truth.tsv")
        rc = main(["evaluate", "--mask", str(tmp_path / "mask.tsv"),
                   "--truth", str(tmp_path / "truth.tsv")])
        assert rc == 0
        assert "f1 1.0000" in capsys.readouterr().out

    def test_95_5_fixture(self, tmp_path, capsys):
        pred = np.zeros(200)
        truth = np.zeros(200)
        truth[:100] = 1
        pred[:95] = 1
        pred[100:105] = 1
        write_tsv(DenseMatrix(pred.reshape(10, 20)), tmp_path / "p.tsv")
        write_tsv(DenseMatrix(truth.reshape(10, 20)), tmp_path / "t.tsv")
        rc = main(["evaluate", "--mask", str(tmp_path / "p.tsv"),
                   "--truth", str(tmp_path / "t.tsv"), "--out", str(tmp_path / "rep.tsv")])
        assert rc == 0
        assert "f1 0.9500" in capsys.readouterr().out
        assert (tmp_path / "rep.tsv").read_text().splitlines()[1].endswith("\t0")

    def test_shape_mismatch(self, tmp_path, capsys):
        write_tsv(DenseMatrix(np.eye(3)), tmp_path / "a.tsv")
        write_tsv(DenseMatrix(np.eye(4)), tmp_path / "b.tsv")
        rc = main(["evaluate", "--mask", str(tmp_path / "a.tsv"),
                   "--truth", str(tmp_path / "b.tsv")])
        assert rc == 2

    def test_missing_args(self, tmp_path, capsys):
        rc = main(["evaluate", "--truth", "x.tsv"])
        assert rc == 2

    def test_benchmark_without_out_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["evaluate", "--benchmark", "--seeds", "1"])
        assert rc == 0
        assert len(capsys.readouterr().out.splitlines()) == 12
        assert list(tmp_path.iterdir()) == []

    def test_benchmark_unwritable_out(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.tsv"
        rc = main(["evaluate", "--benchmark", "--seeds", "1", "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # the grid never ran
        assert captured.err.startswith("error:") and str(out) in captured.err

    def test_report_unwritable_out(self, tmp_path, capsys):
        write_tsv(DenseMatrix(np.eye(3)), tmp_path / "m.tsv")
        out = tmp_path / "missing" / "rep.tsv"
        rc = main(["evaluate", "--mask", str(tmp_path / "m.tsv"),
                   "--truth", str(tmp_path / "m.tsv"), "--out", str(out)])
        assert rc == 2
        assert str(out) in capsys.readouterr().err

    @pytest.mark.parametrize("flags, err", [
        (["--benchmark", "--seeds", "0"], "argument --seeds: expected an integer >= 1, got '0'"),
        (["--benchmark", "--seed", "-1"], "error: seed must be >= 0, got -1\n"),
        (["--threshold", "-1"], "error: threshold must be >= 0, got -1.0\n"),
        (["--threshold", "nan"], "error: threshold must be >= 0, got nan\n"),
    ], ids=["seeds 0", "seed -1", "threshold -1", "threshold nan"])
    def test_bad_input_exits_2(self, tmp_path, capsys, flags, err):
        write_tsv(DenseMatrix(np.eye(3)), tmp_path / "m.tsv")
        m = str(tmp_path / "m.tsv")
        out = tmp_path / "rep.tsv"
        argv = ["evaluate", *flags, "--out", str(out)]
        if "--benchmark" not in flags:
            argv += ["--x", m, "--e", m, "--truth", m]
        try:
            rc = main(argv)
        except SystemExit as exc:   # argparse rejects the flag itself
            rc = exc.code
        assert rc == 2
        captured = capsys.readouterr()
        assert err in captured.err and captured.out == ""
        assert not out.exists()

    def test_xe_without_threshold_or_input(self, tmp_path, capsys):
        write_tsv(DenseMatrix(np.eye(3)), tmp_path / "m.tsv")
        rc = main(["evaluate", "--x", str(tmp_path / "m.tsv"),
                   "--e", str(tmp_path / "m.tsv"),
                   "--truth", str(tmp_path / "m.tsv")])
        assert rc == 2
        assert "--threshold" in capsys.readouterr().err


class TestPipelineComposition:
    def test_cli_matches_in_process(self, tmp_path, capsys):
        seed = 13
        rc = main(["simulate", "--pattern", "2", "--seed", str(seed),
                   "--out", str(tmp_path / "sim")])
        assert rc == 0
        rc = main(["decompose", "--input", str(tmp_path / "sim" / "data.tsv"),
                   "--out", str(tmp_path / "dec")])
        assert rc == 0
        rc = main(["evaluate", "--x", str(tmp_path / "dec" / "X.tsv"),
                   "--e", str(tmp_path / "dec" / "E.tsv"),
                   "--truth", str(tmp_path / "sim" / "mask.tsv"),
                   "--input", str(tmp_path / "sim" / "data.tsv")])
        assert rc == 0
        f1_cli = float(capsys.readouterr().out.strip().splitlines()[-1].split("f1 ")[1])

        inst = generate(PatternSpec(2, seed=seed))
        cfg = auto_config(inst.data)
        rep = score(detect(solve(inst.data, cfg), cfg.detection_threshold), inst.truth_mask)
        assert f1_cli == pytest.approx(rep.f1, abs=5e-5)


def _toy_manifest(tmp_path):
    rows = {
        "s1": ["rs1\t0.5", "rs2\t1e-6", "rs3\t0.2"],
        "s2": ["rs1\t0.9", "rs2\t1e-7", "rs3\t0.4"],
        "s3": ["rs2\t0.3", "rs3\t0.6"],
    }
    lines = []
    for name, data in rows.items():
        (tmp_path / f"{name}.tsv").write_text("\n".join(["snp\tp"] + data) + "\n")
        lines.append(f"{name}\t{name}.tsv")
    mani = tmp_path / "studies.txt"
    mani.write_text("\n".join(lines) + "\n")
    return mani


def _golden_manifest(tmp_path):
    """297 kept SNPs x 6 studies, deterministic on any platform.

    Studies skip about 8% of SNPs (imputed entries); a shared block and a
    few spikes make both reports non-empty. study0 carries one p below the
    clamp, one p = 1 (z = -0.0) and one blank line.
    """
    rng = random.Random(20150101)
    lines = []
    for j in range(6):
        rows = []
        for i in range(300):
            if rng.random() < 0.08:
                continue
            z = abs(rng.gauss(0.0, 1.0))
            if i < 30 and j < 4:
                z += 4.0
            if (i * 7 + j * 11) % 97 == 0:
                z += 6.0
            rows.append(f"rs{1000 + 13 * i}\t{math.erfc(z / math.sqrt(2.0)):.6g}")
        if j == 0:
            rows[5] = rows[5].split("\t")[0] + "\t1e-310"
            rows[20] = rows[20].split("\t")[0] + "\t1"
            rows.insert(10, "")
        (tmp_path / f"study{j}.tsv").write_text("snp\tp\n" + "\n".join(rows) + "\n")
        lines.append(f"study{j}\tstudy{j}.tsv")
    mani = tmp_path / "studies.txt"
    mani.write_text("\n".join(lines) + "\n")
    return mani


# sha256 of each output, recorded from the per-entry writers and parsers
# that the bulk text layers replaced
GOLDEN_SHA256 = {
    "z.tsv": "8fda6600009a2cf0d4033f390b9d130e620fbf23467baed9c5d24713477352d3",
    "imputed_mask.tsv": "84a7ba4377fa1aac008368532de73eabd15d5e080719a08e77e6dfe9c02a2767",
    "X.tsv": "15eb23f5e2d8a68e8503d48d9482bfed7c7cf4a3bf52f1773ddc54e36cc95c8f",
    "E.tsv": "c96223ce06a1087f3518ff5eed29eb249e7d64972b802185ba2714633f1fdbdf",
    "embedding.tsv": "79875161885995abedb1807d023ea24f3ff99842d75cabbad21baeac4f2fb718",
    "shared.tsv": "a1c7698dbff333d380003bf72159ace27464a3e5ae466c4a85ac794c1f34be54",
    "specific.tsv": "4248ce56fc4b04d1c7457f84edd0881cd029b547d3c25618845059bdf3f19cb7",
}


def _force_writers(monkeypatch, workers=4, block=16):
    """Make every write_tsv call fork, whatever the CPU count and row count."""
    monkeypatch.setattr(matrix, "_WRITE_BLOCK", block)
    monkeypatch.setattr(matrix, "_writers", lambda n_rows: workers)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestAnalyze:
    def _check_golden(self, tmp_path, capsys):
        mani = _golden_manifest(tmp_path)
        rc = main(["analyze", "--manifest", str(mani), "--min-coverage", "4",
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        assert capsys.readouterr().out.startswith(
            "297 SNPs x 6 studies; rank(X) 2, 294 shared rows, 78 specific entries;"
        )
        run = _read_manifest(tmp_path / "out" / "manifest.txt")
        assert (run["n_imputed"], run["n_clamped"], run["nnz_of_E"]) == ("128", "1", "105")
        assert (run["n_shared_rows"], run["n_specific_entries"]) == ("294", "78")
        _assert_stage_times(run, ["parse", "align", "solve", "write", "report"])
        digests = {
            name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
            for name in GOLDEN_SHA256
        }
        assert digests == GOLDEN_SHA256
        assert sorted(os.listdir(tmp_path / "out")) == sorted([*GOLDEN_SHA256, "manifest.txt"])

    def test_golden_outputs(self, tmp_path, capsys):
        self._check_golden(tmp_path, capsys)

    def test_golden_outputs_forked_writers(self, tmp_path, capsys, monkeypatch):
        forks = []
        fork = os.fork

        def counted_fork():
            forks.append(1)
            return fork()

        _force_writers(monkeypatch)
        monkeypatch.setattr(os, "fork", counted_fork)
        self._check_golden(tmp_path, capsys)
        assert len(forks) == 4 * 3   # z, mask, X and E, three forked shares each
        _assert_no_child_left()

    def test_writer_failure_names_the_file(self, tmp_path, capsys, monkeypatch):
        render = matrix._write_rows

        def disk_full_after_first_share(m, lo, hi, fh):
            if lo > 0:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            render(m, lo, hi, fh)

        _force_writers(monkeypatch)
        monkeypatch.setattr(matrix, "_write_rows", disk_full_after_first_share)
        with pytest.raises(OSError) as exc:
            write_tsv(DenseMatrix(np.ones((40, 3))), tmp_path / "m.tsv")
        assert (exc.value.errno, exc.value.filename) == (errno.ENOSPC, tmp_path / "m.tsv")
        _assert_no_child_left()

        mani = _golden_manifest(tmp_path)
        out = tmp_path / "out"
        rc = main(["analyze", "--manifest", str(mani), "--min-coverage", "4", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {out / 'z.tsv'}: {os.strerror(errno.ENOSPC)}\n")
        assert os.listdir(out) == ["z.tsv"]   # no temporary share file is left
        _assert_no_child_left()

    def test_first_share_failure_names_the_file(self, tmp_path, capsys, monkeypatch):
        render = matrix._write_rows

        def disk_full_in_first_share(m, lo, hi, fh):
            if lo == 0:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            render(m, lo, hi, fh)

        _force_writers(monkeypatch)
        monkeypatch.setattr(matrix, "_write_rows", disk_full_in_first_share)
        mani = _golden_manifest(tmp_path)
        out = tmp_path / "out"
        rc = main(["analyze", "--manifest", str(mani), "--min-coverage", "4", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {out / 'z.tsv'}: {os.strerror(errno.ENOSPC)}\n")
        assert os.listdir(out) == ["z.tsv"]
        _assert_no_child_left()

    @pytest.mark.parametrize("flag, value, named", [
        ("--alpha", "nan", "alpha and beta"),
        ("--beta", "inf", "alpha and beta"),
        ("--threshold", "nan", "detection_threshold"),
    ])
    def test_non_finite_parameter_writes_nothing(self, tmp_path, capsys, flag, value, named):
        mani = _golden_manifest(tmp_path)
        out = tmp_path / "out"
        rc = main(["analyze", "--manifest", str(mani), "--min-coverage", "4", flag, value,
                   "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {named} must be finite")
        assert captured.out == ""
        assert not out.exists()   # no z.tsv, nor anything else

    def test_toy_pipeline(self, tmp_path):
        mani = _toy_manifest(tmp_path)
        rc = main(["analyze", "--manifest", str(mani), "--min-coverage", "2",
                   "--threshold", "1.0", "--alpha", "2.0", "--beta", "1.0",
                   "--out", str(tmp_path / "out")])
        assert rc in (0, 3)
        for name in ("z.tsv", "imputed_mask.tsv", "X.tsv", "E.tsv",
                     "shared.tsv", "specific.tsv", "manifest.txt"):
            assert (tmp_path / "out" / name).exists()
        run = _read_manifest(tmp_path / "out" / "manifest.txt")
        assert run["n_studies"] == "3"
        for key, name in (("n_shared_rows", "shared.tsv"), ("n_specific_entries", "specific.tsv")):
            data_lines = len((tmp_path / "out" / name).read_text().splitlines()) - 1
            assert run[key] == str(data_lines)
        assert float(run["duration_s"]) >= 0
        _assert_stage_times(run, ["parse", "align", "solve", "write", "report"])
        emb = (tmp_path / "out" / "embedding.tsv")
        if emb.exists():
            assert len(emb.read_text().splitlines()) == 4   # header + 3 studies

    @pytest.mark.parametrize("blocked", ["out", "z.tsv", "X.tsv", "embedding.tsv", "shared.tsv",
                                         "manifest.txt"])
    def test_unwritable_out(self, tmp_path, capsys, blocked):
        mani = _toy_manifest(tmp_path)
        out, named = _unwritable_out(tmp_path, blocked)
        rc = main(["analyze", "--manifest", str(mani), "--min-coverage", "2",
                   "--threshold", "1.0", "--alpha", "2.0", "--beta", "1.0", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {named}: ")

    @pytest.mark.parametrize("rank", ["0", "-1"])
    def test_embed_rank_below_one_usage_error(self, tmp_path, capsys, rank):
        mani = _toy_manifest(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--manifest", str(mani), "--min-coverage", "2",
                  "--embed-rank", rank, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"argument --embed-rank: expected an integer >= 1, got '{rank}'" in (
            capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_missing_study_file(self, tmp_path, capsys):
        mani = tmp_path / "studies.txt"
        mani.write_text("s1\tnope.tsv\n")
        rc = main(["analyze", "--manifest", str(mani), "--min-coverage", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "nope.tsv" in capsys.readouterr().err

    def test_parse_error_names_study_and_line(self, tmp_path, capsys):
        (tmp_path / "s1.tsv").write_text("snp\tp\nrs1\t0\n")
        mani = tmp_path / "studies.txt"
        mani.write_text("s1\ts1.tsv\n")
        rc = main(["analyze", "--manifest", str(mani), "--min-coverage", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "s1.tsv:2" in capsys.readouterr().err
