import errno
import hashlib
import math
import os
import random
import re

import numpy as np
import pytest

from lrsd import __version__, cli, matrix, reporting
from lrsd.cli import main
from lrsd.matrix import DenseMatrix, read_tsv, write_tsv
from lrsd.metrics import score
from lrsd.reporting import embed_studies, write_snp_report
from lrsd.simulate import PatternSpec, generate
from lrsd.solver import SolverConfig, auto_config, detect, solve
from reference import run_python


def _read_manifest(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


# sha256 of `simulate --pattern 4 --seed 1`'s files, recorded before `generate`
# cached its planted bases
SIMULATE_SHA256 = {
    "data.tsv": "a28a98d97fd7fd25709c267508520415346445a1f611aadab7e9956ac8291de0",
    "truth.tsv": "5427f441191e88e703c1dd981e0cdc4d92b498a1085955412ba646ed1b57109e",
    "mask.tsv": "f4c5c88298a3517d7a4737a273dfb67ccc9763b734e2b997d1a1260849223b66",
    "meta.txt": "300348f9c8eb0680d9b5f458e1434fd606ad120793d6e1d6ed88caa6caa22f69",
}


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

    def test_instance_files_golden(self, tmp_path):
        """The four files `simulate` writes, byte for byte."""
        assert main(["simulate", "--pattern", "4", "--seed", "1", "--out", str(tmp_path)]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in SIMULATE_SHA256}
        assert digests == SIMULATE_SHA256

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

    @pytest.mark.parametrize("command", ["decompose", "evaluate --x"])
    def test_non_finite_entry_names_line(self, tmp_path, capsys, command):
        src = tmp_path / "d.tsv"
        src.write_text("id\ta\tb\nr1\t1\t2\nr2\tnan\t4\nr3\t5\t6\n")
        out = tmp_path / "o"
        if command == "decompose":
            rc = main(["decompose", "--input", str(src), "--out", str(out)])
        else:
            ok = tmp_path / "ok.tsv"
            write_tsv(DenseMatrix(np.zeros((3, 2))), ok)
            rc = main(["evaluate", "--x", str(src), "--e", str(ok), "--truth", str(ok),
                       "--threshold", "1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert (captured.err, captured.out) == (
            f"error: {src}:3: matrix entries must be finite, got 'nan'\n", "")
        assert not out.exists()

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
        ("--beta", "nan", "beta"),
        ("--alpha", "nan", "alpha"),
        ("--alpha", "inf", "alpha"),
        ("--tol", "nan", "rel_tolerance"),
        ("--threshold", "nan", "threshold"),
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
        _assert_peak_rss(mani, after="nnz_of_E")

    def test_non_utf8_matrix_refused(self, tmp_path, capsys):
        m = tmp_path / "latin1.tsv"
        m.write_bytes(b"id\ta\tb\nr1\t1\t2\nr\xe9\t3\t4\n")
        rc = main(["decompose", "--input", str(m), "--out", str(tmp_path / "dec")])
        assert rc == 2
        assert capsys.readouterr() == ("", f"error: {m}:3: not UTF-8 text\n")
        assert not (tmp_path / "dec").exists()


def _assert_peak_rss(mani, after):
    """peak_rss_mb, in MB to one decimal, just after `after` and just before the stage times."""
    keys = list(mani)
    at = keys.index("peak_rss_mb")
    assert keys[at - 1] == after
    assert keys[at + 1].startswith("time_")
    assert mani["peak_rss_mb"] == f"{float(mani['peak_rss_mb']):.1f}"
    assert float(mani["peak_rss_mb"]) > 0


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


# the solve's outcome, between a command's own keys and its counts
OUTCOME_KEYS = ["iterations_used", "converged", "rank_of_X", "nnz_of_E"]
PARAMETER_KEYS = ["sigma_hat", "alpha", "beta", "threshold"]


def test_decompose_manifest_key_sequence(tmp_path):
    src = tmp_path / "small.tsv"
    write_tsv(DenseMatrix(SMALL), src)
    rc = main(["decompose", "--input", str(src), "--out", str(tmp_path / "o")])
    assert rc == 0
    mani = _read_manifest(tmp_path / "o" / "manifest.txt")
    assert list(mani) == [
        "tool_version", "subcommand", "input", *PARAMETER_KEYS, "max_iterations",
        "rel_tolerance", *OUTCOME_KEYS, "peak_rss_mb", "time_read_s", "time_solve_s",
        "time_write_s", "duration_s",
    ]
    assert (mani["tool_version"], mani["subcommand"], mani["input"]) == (
        __version__, "decompose", str(src))


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
        a, b, out = tmp_path / "a.tsv", tmp_path / "b.tsv", tmp_path / "rep.tsv"
        write_tsv(DenseMatrix(np.eye(3)), a)
        write_tsv(DenseMatrix(np.eye(4)), b)
        rc = main(["evaluate", "--mask", str(a), "--truth", str(b), "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert (captured.err, captured.out) == (f"error: {a} is 3 x 3 but {b} is 4 x 4\n", "")
        assert not out.exists()

    def test_x_and_e_shape_mismatch(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        write_tsv(DenseMatrix(rng.normal(size=(100, 50))), tmp_path / "X.tsv")
        write_tsv(DenseMatrix(rng.normal(size=(1, 50))), tmp_path / "E1.tsv")
        write_tsv(DenseMatrix(np.zeros((100, 50))), tmp_path / "truth.tsv")
        x, e = tmp_path / "X.tsv", tmp_path / "E1.tsv"
        rc = main(["evaluate", "--x", str(x), "--e", str(e), "--truth",
                   str(tmp_path / "truth.tsv"), "--threshold", "0.5"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {x} is 100 x 50 but {e} is 1 x 50\n"

    def test_x_and_truth_shape_mismatch(self, tmp_path, capsys):
        x, e, truth = tmp_path / "X.tsv", tmp_path / "E.tsv", tmp_path / "truth.tsv"
        out = tmp_path / "rep.tsv"
        write_tsv(DenseMatrix(np.eye(2)), x)
        write_tsv(DenseMatrix(np.zeros((2, 2))), e)
        write_tsv(DenseMatrix(np.eye(3, 2)), truth)
        rc = main(["evaluate", "--x", str(x), "--e", str(e), "--truth", str(truth),
                   "--threshold", "0.5", "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert (captured.err, captured.out) == (f"error: {x} is 2 x 2 but {truth} is 3 x 2\n", "")
        assert not out.exists()

    @pytest.mark.parametrize("shape", [(7, 3), (50, 100)])
    def test_input_and_x_shape_mismatch(self, tmp_path, capsys, shape):
        # --input only gives sigma_hat for T, but it must be the data X and E came from
        rng = np.random.default_rng(4)
        x, e, d = tmp_path / "X.tsv", tmp_path / "E.tsv", tmp_path / "D.tsv"
        write_tsv(DenseMatrix(rng.normal(size=(100, 50))), x)
        write_tsv(DenseMatrix(np.zeros((100, 50))), e)
        write_tsv(DenseMatrix(np.zeros((100, 50))), tmp_path / "truth.tsv")
        write_tsv(DenseMatrix(rng.normal(size=shape)), d)
        out = tmp_path / "rep.tsv"
        rc = main(["evaluate", "--x", str(x), "--e", str(e), "--truth", str(tmp_path / "truth.tsv"),
                   "--input", str(d), "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {d} is {shape[0]} x {shape[1]} but {x} is 100 x 50\n"
        assert not out.exists()

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

    def test_benchmark_failed_write_refused(self, tmp_path, monkeypatch, capsys):
        """A write that fails after the grid ran is refused as any unwritable
        output is: one `error:` line and exit 2, not a traceback."""
        def disk_full(rows, path):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli, "write_benchmark_tsv", disk_full)
        out = tmp_path / "bench.tsv"
        rc = main(["evaluate", "--benchmark", "--seeds", "1", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: {os.strerror(errno.ENOSPC)}\n")

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
        (["--threshold", "-1"], "error: threshold must be finite and >= 0, got -1.0\n"),
        (["--threshold", "nan"], "error: threshold must be finite and >= 0, got nan\n"),
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

    @pytest.mark.parametrize("mask, out, err", [
        ("missing.tsv", "rep.tsv", "error: cannot read {mask}: No such file or directory\n"),
        ("t.tsv", "missing/rep.tsv", "error: cannot write {out}: No such file or directory\n"),
    ], ids=["missing mask", "unwritable out"])
    def test_refusal_leaves_no_report(self, tmp_path, capsys, mask, out, err):
        """The report is written only after the inputs are read and scored,
        and the result line is printed only after the report is written."""
        write_tsv(DenseMatrix(np.eye(3)), tmp_path / "t.tsv")
        mask, out = tmp_path / mask, tmp_path / out
        rc = main(["evaluate", "--mask", str(mask), "--truth", str(tmp_path / "t.tsv"),
                   "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert (captured.err, captured.out) == (err.format(mask=mask, out=out), "")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--mask", "--truth"])
    def test_mask_entries_other_than_0_and_1_refused(self, tmp_path, capsys, flag):
        write_tsv(DenseMatrix(np.eye(2)), tmp_path / "good.tsv")
        bad = tmp_path / "bad.tsv"
        write_tsv(DenseMatrix(np.array([[1.0, 0.5], [2.0, 0.0]])), bad)
        files = {"--mask": tmp_path / "good.tsv", "--truth": tmp_path / "good.tsv", flag: bad}
        out = tmp_path / "rep.tsv"
        rc = main(["evaluate", "--mask", str(files["--mask"]), "--truth", str(files["--truth"]),
                   "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert (captured.err, captured.out) == (
            f"error: {bad}: mask entries must be 0 or 1, got 0.5\n", "")
        assert not out.exists()

    def test_xe_without_threshold_or_input(self, tmp_path, capsys):
        write_tsv(DenseMatrix(np.eye(3)), tmp_path / "m.tsv")
        rc = main(["evaluate", "--x", str(tmp_path / "m.tsv"),
                   "--e", str(tmp_path / "m.tsv"),
                   "--truth", str(tmp_path / "m.tsv")])
        assert rc == 2
        assert "--threshold" in capsys.readouterr().err

    def test_rule_threshold_checked(self, tmp_path, capsys):
        """A rule T from --input is checked as a flag is: here sigma_hat overflows to inf."""
        write_tsv(DenseMatrix(np.array([[-1.5e308, 0.0, 1.5e308]])), tmp_path / "d.tsv")
        write_tsv(DenseMatrix(np.zeros((1, 3))), tmp_path / "m.tsv")
        m = str(tmp_path / "m.tsv")
        rc = main(["evaluate", "--x", m, "--e", m, "--truth", m,
                   "--input", str(tmp_path / "d.tsv")])
        assert rc == 2
        captured = capsys.readouterr()
        assert (captured.err, captured.out) == (
            "error: threshold must be finite and >= 0, got inf\n", "")


_THRESHOLD_CASES = [
    pytest.param(entry, T, id=f"{entry}-{name}")
    for entry in ("SolverConfig", "detect", "lrsd evaluate --threshold", "write_snp_report")
    for T, name in [(-1.0, "-1"), (0.0, "0"), (math.inf, "inf"), (math.nan, "nan")]
] + [  # not a number: the flag's parser refuses these, and SolverConfig keeps "auto"
    pytest.param(entry, T, id=f"{entry}-{T}")
    for entry, T in [("SolverConfig", None), ("detect", "auto"), ("detect", None),
                     ("write_snp_report", "auto"), ("write_snp_report", None)]
]


@pytest.mark.parametrize("entry, T", _THRESHOLD_CASES)
def test_one_threshold_check(tmp_path, capsys, entry, T):
    """Every entry point that takes a detection threshold T refuses one that
    is not a finite number >= 0 with the same message, and accepts 0."""
    result = solve(np.eye(3), SolverConfig(alpha=1.0, beta=1.0))
    write_tsv(DenseMatrix(np.eye(3)), tmp_path / "m.tsv")
    m = str(tmp_path / "m.tsv")
    call = {
        "SolverConfig": lambda: SolverConfig(alpha=1.0, beta=1.0, detection_threshold=T),
        "detect": lambda: detect(result, T),
        "write_snp_report": lambda: write_snp_report(
            result, tmp_path / "shared.tsv", tmp_path / "specific.tsv", T),
        "lrsd evaluate --threshold": lambda: main(
            ["evaluate", "--x", m, "--e", m, "--truth", m, f"--threshold={T!r}"]),
    }[entry]
    message = f"threshold must be finite and >= 0, got {T!r}"
    if T == 0.0:   # accepted: nothing is raised, and evaluate exits 0
        outcome = call()
        if entry.startswith("lrsd"):
            assert outcome == 0
    elif entry.startswith("lrsd"):
        assert call() == 2
        captured = capsys.readouterr()
        assert (captured.err, captured.out) == (f"error: {message}\n", "")
    else:
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


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


    def test_numeric_labels_read_back(self, tmp_path, capsys):
        """Study names and SNP ids that spell numbers: decompose and evaluate
        read analyze's outputs with their labels, not as a row or column of data."""
        (tmp_path / "a.tsv").write_text("snp\tp\n100\t0.5\n200\t1e-6\n300\t0.2\n")
        (tmp_path / "b.tsv").write_text("snp\tp\n100\t0.9\n200\t1e-7\n")
        (tmp_path / "studies.txt").write_text("1\ta.tsv\n2\tb.tsv\n")
        an, dec = tmp_path / "an", tmp_path / "dec"
        assert main(["analyze", "--manifest", str(tmp_path / "studies.txt"),
                     "--min-coverage", "1", "--out", str(an)]) == 0
        assert main(["decompose", "--input", str(an / "z.tsv"), "--out", str(dec)]) == 0
        z, X = read_tsv(an / "z.tsv"), read_tsv(dec / "X.tsv")
        assert (z.row_labels, z.col_labels) == (("100", "200", "300"), ("1", "2"))
        assert (X.row_labels, X.col_labels) == (z.row_labels, z.col_labels)

        def layout(path):   # the header and the row labels
            lines = path.read_text().splitlines()
            return lines[0], [line.split("\t")[0] for line in lines[1:]]

        assert layout(dec / "X.tsv") == layout(an / "z.tsv")
        emb = read_tsv(an / "embedding.tsv")
        assert (emb.row_labels, emb.col_labels) == (("1", "2"), ("c1",))
        assert np.array_equal(emb.values, embed_studies(read_tsv(an / "X.tsv"), 1).values)
        capsys.readouterr()
        rc = main(["evaluate", "--x", str(dec / "X.tsv"), "--e", str(dec / "E.tsv"),
                   "--truth", str(an / "imputed_mask.tsv"), "--threshold", "1"])
        assert rc == 0
        assert capsys.readouterr().err == ""


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
    clamp, one p = 1 (z = 0.0) and one blank line.
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
    "z.tsv": "6db1017af3a4860277b15f3290c3fd41f8088e020ffa8fcdb2f879b618a2b5f2",
    "imputed_mask.tsv": "84a7ba4377fa1aac008368532de73eabd15d5e080719a08e77e6dfe9c02a2767",
    "X.tsv": "15eb23f5e2d8a68e8503d48d9482bfed7c7cf4a3bf52f1773ddc54e36cc95c8f",
    "E.tsv": "78d3b7317a5122d8e31446c46c6d9532465da42cbc127be8307d150cc5d4d10c",
    "embedding.tsv": "4befcbe9e7cb3ca8a1ed91fc1c97e3961745f3cb927d223733d5d446cded2fbf",
    "shared.tsv": "a1c7698dbff333d380003bf72159ace27464a3e5ae466c4a85ac794c1f34be54",
    "specific.tsv": "4248ce56fc4b04d1c7457f84edd0881cd029b547d3c25618845059bdf3f19cb7",
}


def _force_writers(monkeypatch, workers=4, block=16):
    """Make every sharded write fork, whatever the CPU count and row count."""
    monkeypatch.setattr(matrix, "_WRITE_BLOCK", block)
    monkeypatch.setattr(matrix, "_writers", lambda n_rows: workers)


# the C locale with UTF-8 mode and locale coercion off: Python's default
# text encoding is ASCII, and a non-ASCII argument reaches it as surrogate escapes
C_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestAnalyze:
    def _check_golden(self, tmp_path, capsys):
        mani = _golden_manifest(tmp_path)
        rc = main(["analyze", "--manifest", str(mani), "--min-coverage", "4",
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        run = _read_manifest(tmp_path / "out" / "manifest.txt")
        assert list(run) == [
            "tool_version", "subcommand", "manifest", "n_studies", "n_snps", "min_coverage",
            "n_imputed", "n_clamped", "embed_rank", *PARAMETER_KEYS, *OUTCOME_KEYS,
            "n_shared_rows", "n_specific_entries", "peak_rss_mb", "time_parse_s",
            "time_align_s", "time_solve_s", "time_write_s", "time_report_s", "duration_s",
        ]
        assert (run["tool_version"], run["subcommand"], run["manifest"]) == (
            __version__, "analyze", str(mani))
        assert capsys.readouterr().out == (
            "297 SNPs x 6 studies; rank(X) 2, 294 shared rows, 78 specific entries; "
            f"{run['duration_s']}s\n"
        )
        assert (run["n_imputed"], run["n_clamped"], run["nnz_of_E"]) == ("128", "1", "105")
        assert (run["n_shared_rows"], run["n_specific_entries"]) == ("294", "78")
        _assert_stage_times(run, ["parse", "align", "solve", "write", "report"])
        _assert_peak_rss(run, after="n_specific_entries")
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
        # z, mask, X, E, embedding, shared and specific, three forked shares each
        assert len(forks) == 7 * 3
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

    def test_forked_report_share_failure_names_the_file(self, tmp_path, capsys, monkeypatch):
        write_shares, parent = matrix._write_shares, os.getpid()

        def disk_full_in_forked_shares(path, head, n, render):
            def failing(lo, hi, fh):
                if os.getpid() != parent:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                render(lo, hi, fh)

            write_shares(path, head, n, failing if path.name == "shared.tsv" else render)

        _force_writers(monkeypatch)
        monkeypatch.setattr(reporting, "_write_shares", disk_full_in_forked_shares)
        mani = _golden_manifest(tmp_path)
        out = tmp_path / "out"
        rc = main(["analyze", "--manifest", str(mani), "--min-coverage", "4", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {out / 'shared.tsv'}: {os.strerror(errno.ENOSPC)}\n")
        # no temporary share file is left, and specific.tsv is not begun
        assert sorted(os.listdir(out)) == sorted(
            ["z.tsv", "imputed_mask.tsv", "X.tsv", "E.tsv", "embedding.tsv", "shared.tsv"])
        _assert_no_child_left()

    @pytest.mark.parametrize("forced", [False, True], ids=["one writer", "forced writers"])
    def test_non_utf8_locale_writes_utf8(self, tmp_path, forced):
        """Under the C locale with UTF-8 mode and locale coercion off, Python's
        default text encoding is ASCII; analyze still writes a non-ASCII study
        name and SNP ids as UTF-8, in its first share and in forked ones."""
        ids = [f"rs\u00fc{i}" for i in range(12)]
        for name, p_values in (("a", [1e-20] * 4 + [0.5] * 8), ("b", [1e-15] * 4 + [0.3] * 8)):
            body = "".join(f"{snp}\t{p}\n" for snp, p in zip(ids, p_values))
            (tmp_path / f"{name}.tsv").write_text("snp\tp\n" + body, encoding="utf-8")
        (tmp_path / "studies.txt").write_text("\u00e9\ta.tsv\ns2\tb.tsv\n", encoding="utf-8")
        encoding = run_python(
            "-c", "import locale; print(locale.getpreferredencoding(False))",
            env=C_LOCALE, text=True, check=True).stdout.strip()
        assert encoding.lower().replace("-", "") != "utf8"
        # as _force_writers does: four writers, so forked shares write non-ASCII rows
        command = ["-c", "import sys; from lrsd import matrix, cli; matrix._WRITE_BLOCK = 16; "
                   "matrix._writers = lambda n_rows: 4; sys.exit(cli.main(sys.argv[1:]))"]
        out = tmp_path / "out"
        run = run_python(*(command if forced else ["-m", "lrsd.cli"]), "analyze",
                         "--manifest", tmp_path / "studies.txt", "--min-coverage", "1",
                         "--out", out, env=C_LOCALE, text=True)
        assert (run.returncode, run.stderr) == (0, "")
        z = (out / "z.tsv").read_bytes().decode("utf-8").splitlines()
        assert z[0] == "id\t\u00e9\ts2"
        assert [line.split("\t")[0] for line in z[1:]] == sorted(ids)
        embedding = (out / "embedding.tsv").read_bytes().decode("utf-8").splitlines()
        assert [line.split("\t")[0] for line in embedding[1:]] == ["\u00e9", "s2"]
        (out / "manifest.txt").read_bytes().decode("utf-8")

    def test_non_ascii_path_argument_under_non_utf8_locale(self, tmp_path):
        """Under the same locale a non-ASCII path argument reaches Python as
        surrogate escapes; analyze and decompose still exit 0, and manifest.txt
        records the path's own bytes."""
        d = tmp_path / "dé"
        d.mkdir()
        for name, p_values in (("a", [1e-20, 0.5, 0.2, 0.9]), ("b", [1e-15, 0.3, 0.6, 0.1])):
            body = "".join(f"rs{i}\t{p}\n" for i, p in enumerate(p_values))
            (d / f"{name}.tsv").write_text("snp\tp\n" + body, encoding="utf-8")
        (d / "studies.txt").write_text("s1\ta.tsv\ns2\tb.tsv\n", encoding="utf-8")

        def lrsd(*args):
            run = run_python("-m", "lrsd.cli", *args, env=C_LOCALE)
            assert (run.returncode, run.stderr) == (0, b"")

        mani, z = d / "studies.txt", d / "an" / "z.tsv"
        lrsd("analyze", "--manifest", mani, "--min-coverage", "1", "--out", d / "an")
        assert b"manifest=" + os.fsencode(mani) + b"\n" in (d / "an" / "manifest.txt").read_bytes()
        lrsd("decompose", "--input", z, "--out", d / "dec")
        assert b"input=" + os.fsencode(z) + b"\n" in (d / "dec" / "manifest.txt").read_bytes()

    def test_error_line_prints_path_argument_as_given(self, tmp_path):
        """Under the same locale an error line carries a path argument's own
        bytes, and a file that cannot be read is refused as `cannot read PATH:
        REASON`, the form of a failed write."""
        d = tmp_path / "dé"
        d.mkdir()
        (d / "a.tsv").write_text("snp\tp\nrs1\t0.5\n", encoding="utf-8")
        (d / "studies.txt").write_text("s1\ta.tsv\ns2\tmissing.tsv\n", encoding="utf-8")

        def stderr(*args):
            run = run_python("-m", "lrsd.cli", *args, env=C_LOCALE)
            assert (run.returncode, run.stdout) == (2, b"")
            return run.stderr

        missing = d / "missing.tsv"
        assert stderr("decompose", "--input", missing, "--out", d / "dec") == (
            b"error: cannot read " + os.fsencode(missing) + b": No such file or directory\n")
        assert stderr("analyze", "--manifest", d / "studies.txt", "--min-coverage", "1",
                      "--out", d / "an") == (
            b"error: study s2: missing file " + os.fsencode(missing) + b"\n")

    @pytest.mark.parametrize("bad, line", [("b.tsv", b"rs\xe92\t0.3\n"),
                                           ("studies.txt", b"\xe9\ta.tsv\n")],
                             ids=["study", "manifest"])
    def test_non_utf8_input_refused(self, tmp_path, capsys, bad, line):
        """A study file or manifest that is not UTF-8 is refused, naming the
        file and the line of the first byte that does not decode."""
        (tmp_path / "a.tsv").write_bytes(b"snp\tp\nrs1\t0.5\nrs2\t0.1\n")
        (tmp_path / "b.tsv").write_bytes(b"snp\tp\nrs1\t0.2\n")
        (tmp_path / "studies.txt").write_bytes(b"s1\ta.tsv\ns2\tb.tsv\n")
        with open(tmp_path / bad, "ab") as fh:   # line 3, with a Latin-1 byte
            fh.write(line)
        out = tmp_path / "out"
        rc = main(["analyze", "--manifest", str(tmp_path / "studies.txt"), "--min-coverage", "1",
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr() == ("", f"error: {tmp_path / bad}:3: not UTF-8 text\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, named", [
        ("--alpha", "nan", "alpha"),
        ("--beta", "inf", "beta"),
        ("--threshold", "nan", "threshold"),
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
        _assert_peak_rss(run, after="n_specific_entries")
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

    @pytest.mark.parametrize("lines, coverage, named", [
        pytest.param("s1\ts1.tsv\ns1\ts2.tsv\n", "1", "{mani}:2: duplicate study name 's1'",
                     id="duplicate name"),
        pytest.param("s1\ts1.tsv\ns1 \ts2.tsv\n", "1", "{mani}:2: duplicate study name 's1 '",
                     id="duplicate name but for whitespace"),
        pytest.param(" \ts1.tsv\ns2\ts2.tsv\n", "1", "{mani}:1: empty study name",
                     id="blank name"),
        pytest.param("s1\ts1.tsv\ns2\t\n", "1", "{mani}:2: empty path for study 's2'",
                     id="empty path"),
        pytest.param("s1\ts1.tsv\ns2\tnope.tsv\n", "1", "study s2: missing file {dir}/nope.tsv",
                     id="missing study file"),
        pytest.param("s1\ts1.tsv\ns2\tbad.tsv\n", "1",
                     "{dir}/bad.tsv:3: p-value 0.0 outside (0, 1]", id="study parse error"),
        # the flag, not a file, is at fault: the message names the bad value and its range
        pytest.param("s1\ts1.tsv\ns2\ts2.tsv\n", "0", "min coverage k=0 outside 1..2",
                     id="coverage 0"),
        pytest.param("s1\ts1.tsv\ns2\ts2.tsv\n", "3", "min coverage k=3 outside 1..2",
                     id="coverage above studies"),
    ])
    def test_bad_study_input_writes_nothing(self, tmp_path, capsys, lines, coverage, named):
        for name in ("s1", "s2"):
            (tmp_path / f"{name}.tsv").write_text("snp\tp\nrs1\t0.5\nrs2\t1e-6\n")
        (tmp_path / "bad.tsv").write_text("snp\tp\nrs1\t0.5\nrs2\t0\n")
        mani = tmp_path / "studies.txt"
        mani.write_text(lines)
        out = tmp_path / "o"
        rc = main(["analyze", "--manifest", str(mani), "--min-coverage", coverage,
                   "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        named = named.format(mani=mani, dir=tmp_path.resolve())
        assert (captured.err, captured.out) == (f"error: {named}\n", "")
        assert not out.exists()

    def test_coverage_refused_before_any_parse(self, tmp_path, capsys, monkeypatch):
        """A --min-coverage above the study count is refused as soon as the
        manifest is read: no study is parsed, so a missing file goes unnamed."""
        (tmp_path / "s1.tsv").write_text("snp\tp\nrs1\t0.5\n")
        mani = tmp_path / "studies.txt"
        mani.write_text("s1\ts1.tsv\ns2\tnope.tsv\n")
        parsed = []
        monkeypatch.setattr(cli, "parse_study", lambda *args: parsed.append(args))
        out = tmp_path / "o"
        rc = main(["analyze", "--manifest", str(mani), "--min-coverage", "3", "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert (captured.err, captured.out) == ("error: min coverage k=3 outside 1..2\n", "")
        assert parsed == []
        assert not out.exists()

    def test_missing_file_refused_before_any_parse(self, tmp_path, capsys, monkeypatch):
        """Every study path is checked before the first study is parsed: a
        missing last file is named, not an earlier file's bad p-value."""
        (tmp_path / "s1.tsv").write_text("snp\tp\nrs1\tabc\n")
        mani = tmp_path / "studies.txt"
        mani.write_text("s1\ts1.tsv\ns2\tmissing.tsv\n")
        parse, parsed = cli.parse_study, []

        def counted_parse(*args):
            parsed.append(args)
            return parse(*args)

        monkeypatch.setattr(cli, "parse_study", counted_parse)
        out = tmp_path / "o"
        rc = main(["analyze", "--manifest", str(mani), "--min-coverage", "1", "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        missing = tmp_path.resolve() / "missing.tsv"
        assert (captured.err, captured.out) == (f"error: study s2: missing file {missing}\n", "")
        assert parsed == []
        assert not out.exists()

    def test_parse_error_names_study_and_line(self, tmp_path, capsys):
        (tmp_path / "s1.tsv").write_text("snp\tp\nrs1\t0\n")
        mani = tmp_path / "studies.txt"
        mani.write_text("s1\ts1.tsv\n")
        rc = main(["analyze", "--manifest", str(mani), "--min-coverage", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "s1.tsv:2" in capsys.readouterr().err
