import itertools
import math
import re
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, target
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import lapack

from lrsd import solver
from lrsd.cli import main
from lrsd.matrix import DenseMatrix, write_tsv
from lrsd.metrics import benchmark_grid
from lrsd.reporting import embed_studies, write_snp_report
from lrsd.simulate import generate
from lrsd.solver import (
    GRAM_MAX_RATIO,
    DegenerateInputError,
    SolverConfig,
    auto_config,
    detect,
    estimate_sigma,
    numerical_rank,
    objective,
    optimality_residual,
    resolve_params,
    soft_threshold,
    solve,
    svt,
    _calls,
    _detect,
    _gram_svt,
    _right_svd,
    _shrink,
    _svd_factors,
    _svt,
)


class TestObjective:
    def test_zero_components(self):
        D = np.array([[3.0, 4.0]])
        assert objective(D, np.zeros_like(D), np.zeros_like(D), 1.0, 1.0) == pytest.approx(12.5)

    def test_diagonal_nuclear_norm(self):
        X = np.diag([2.0, 3.0])
        assert objective(X, X, np.zeros_like(X), 1.0, 1.0) == pytest.approx(5.0)

    def test_matches_definitions(self):
        rng = np.random.default_rng(0)
        D, X, E = rng.normal(size=(3, 5, 4))
        expected = (
            0.5 * ((D - X - E) ** 2).sum()
            + 2.0 * np.linalg.svd(X, compute_uv=False).sum()
            + 0.5 * np.abs(E).sum()
        )
        assert objective(D, X, E, 2.0, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            objective(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2)), 1, 1)


class TestSvt:
    def test_diagonal(self):
        out = svt(np.diag([5.0, 2.0, 1.0]), 1.5)
        assert np.allclose(out, np.diag([3.5, 0.5, 0.0]), atol=1e-12)

    def test_lambda_zero_identity(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(4, 6))
        assert np.abs(svt(m, 0.0) - m).max() < 1e-10

    def test_negative_lambda(self):
        with pytest.raises(ValueError):
            svt(np.zeros((2, 2)), -0.1)

    def test_local_optimality_probe(self):
        # prox of the nuclear norm: no norm-1e-3 perturbation improves it
        rng = np.random.default_rng(2)
        M = rng.normal(size=(4, 3))
        lam = 1.0
        X = svt(M, lam)

        def f(Z):
            return 0.5 * ((M - Z) ** 2).sum() + lam * np.linalg.svd(Z, compute_uv=False).sum()

        base = f(X)
        for _ in range(1000):
            P = rng.normal(size=X.shape)
            P *= 1e-3 / np.linalg.norm(P)
            assert f(X + P) >= base - 1e-12


@st.composite
def svt_cases(draw):
    """M = U diag(s) V^T of any shape and rank, and lam from s1/lam in [0.1, 1e8] or 0."""
    n, p = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rank = draw(st.integers(0, min(n, p)))
    s1 = 10.0 ** draw(st.floats(-3, 3))
    log_ratio = draw(st.one_of(st.none(), st.floats(-1, 8)))
    lam = 0.0 if log_ratio is None else s1 / 10.0**log_ratio
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = max(rank - 1, 0)  # singular values besides s1
    if lam > 0 and draw(st.booleans()):
        # crowded around lam, where the round-off of the Gram route matters most
        rest = lam * (1 + 10.0 ** draw(st.floats(-9, -1)) * rng.uniform(-1, 1, m))
    else:
        # spread over up to 12 decades below s1
        rest = s1 * 10.0 ** -rng.uniform(0, draw(st.floats(0, 12)), m)
    s = np.r_[s1, np.minimum(rest, s1)][:rank]
    U = np.linalg.qr(rng.normal(size=(n, n)))[0][:, :rank]
    V = np.linalg.qr(rng.normal(size=(p, p)))[0][:, :rank]
    return (U * s) @ V.T, lam


@settings(max_examples=300, deadline=None)
@given(svt_cases())
def test_svt_matches_svd_oracle(case):
    # the prox is 1-Lipschitz, so its error is measured against the size of M
    M, lam = case
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    s_oracle = np.maximum(s - lam, 0.0)
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as spy:
        X, s_thr = _svt(M, lam, np.empty(M.shape))
    # only the kept values are returned: pad with the zeros of the rest of the spectrum
    assert s_thr.size <= s_oracle.size
    s_thr = np.r_[s_thr, np.zeros(s_oracle.size - s_thr.size)]
    err = np.linalg.norm(X - (U * s_oracle) @ Vt) / max(np.linalg.norm(M), 1e-300)
    target(err)  # steer the search towards the spectra the Gram route handles worst
    assert err <= 1e-10
    assert np.abs(s_thr - s_oracle).max() <= 1e-10 * max(s[0], 1e-300)
    assert np.array_equal(svt(M, lam), X)
    ratio = s[0] / lam if lam > 0 else np.inf
    if abs(ratio / GRAM_MAX_RATIO - 1) > 1e-9:  # clear of the cut, where round-off decides
        assert spy.call_count == (1 if lam == 0 or ratio > GRAM_MAX_RATIO else 0)



def _eigh_gram_svt(G, lam):
    """_gram_svt through every eigenpair of G (np.linalg.eigh): the subset solver's oracle."""
    w, V = np.linalg.eigh(G)
    s = np.sqrt(np.maximum(w[::-1], 0.0))
    if s.size and s[0] > GRAM_MAX_RATIO * lam:
        return None
    k = int((s > lam).sum())
    Vk = V[:, ::-1][:, :k]
    return Vk, Vk * ((s[:k] - lam) / s[:k]), s[:k] - lam


def _gram_case(kinds, log_lam, seed):
    """A = U diag(s) V^T with one singular value per kind, relative to lam = 10**log_lam.

    above: lam < s <= 10**4.5 lam (past GRAM_MAX_RATIO for some); below: s < lam;
    zero: s = 0; near: s^2 within 1e-12 relative of lam^2; equal: s = 10 lam, so
    that several make one repeated singular value.
    """
    rng = np.random.default_rng(seed)
    lam = 10.0**log_lam
    s = np.array([{
        "above": lam * 10.0 ** rng.uniform(1e-3, 4.5),
        "below": lam * 10.0 ** -rng.uniform(1e-3, 6),
        "zero": 0.0,
        "near": lam * np.sqrt(1 + rng.uniform(-1e-12, 1e-12)),
        "equal": 10 * lam,
    }[k] for k in kinds])
    p = len(kinds)
    U = np.linalg.qr(rng.normal(size=(p + 3, p)))[0]
    V = np.linalg.qr(rng.normal(size=(p, p)))[0]
    return (U * s) @ V.T, lam


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["above", "below", "zero", "near", "equal"]), min_size=1,
                max_size=12),
       st.floats(-3, 3), st.integers(0, 2**32 - 1))
@example(["zero"] * 4, 0.0, 0)           # G = 0
@example(["above"], 0.0, 1)              # 1 x 1, kept
@example(["below"], 0.0, 2)              # 1 x 1, dropped
@example(["near"] * 6, 0.0, 3)           # a tight cluster astride the cut
@example(["above"] * 5, 0.0, 4)          # every eigenvalue above lam^2
@example(["equal"] * 10 + ["zero"] * 2, -2.0, 7)  # inverse iteration can fail on this one
def test_gram_svt_matches_full_eigh(kinds, log_lam, seed):
    A, lam = _gram_case(kinds, log_lam, seed)
    G = A.T @ A
    got, want = _gram_svt(G, lam), _eigh_gram_svt(G, lam)
    # clear of the cut, where round-off decides
    if abs(np.linalg.norm(A, 2) / lam / GRAM_MAX_RATIO - 1) > 1e-9:
        assert (got is None) == (want is None)
    if got is not None and want is not None:
        _assert_gram_factors_agree(A, lam, got, want)


def _assert_gram_factors_agree(A, lam, got, want):
    (Vk, W, s_thr), (Vk0, W0, s_thr0) = got, want
    # the kept shrunk values, one per column of V_k, padded to the full spectrum
    p = A.shape[1]
    assert s_thr.shape == (Vk.shape[1],) and s_thr0.shape == (Vk0.shape[1],)
    s_thr, s_thr0 = (np.r_[v, np.zeros(p - v.size)] for v in (s_thr, s_thr0))
    assert np.all(s_thr[:-1] >= s_thr[1:]) and np.all(s_thr >= 0)
    # the Gram route's error grows like eps * s1/lam on both sides, relative to ||A||
    s1 = np.linalg.norm(A, 2)
    tol = 1e-14 * max(s1 / lam, 1.0)
    assert np.abs(s_thr - s_thr0).max() <= tol * max(s1, lam)
    assert np.linalg.norm(A @ Vk @ W.T - A @ Vk0 @ W0.T) <= tol * max(np.linalg.norm(A), lam)
    if s_thr0[0] > 1e3 * tol * max(s1, lam):  # a rank of round-off-sized values is round-off
        assert numerical_rank(s_thr) == numerical_rank(s_thr0)


def _dsyevr_reporting(info):
    """lapack.dsyevr as it is, except that it reports the given info."""
    real = lapack.dsyevr
    return lambda *args, **kwargs: (*real(*args, **kwargs)[:4], info)


def test_gram_svt_falls_back_to_all_pairs_when_inverse_iteration_fails():
    A, lam = _gram_case(["above", "above", "near", "below"], 0.0, 5)
    A = np.c_[A, np.zeros(len(A))]   # an exact zero eigenvalue, which must not divide
    G = A.T @ A
    with mock.patch.object(lapack, "dsyevr", _dsyevr_reporting(1)), \
            mock.patch.object(lapack, "dsyevd", wraps=lapack.dsyevd) as full:
        got = _gram_svt(G, lam)
    assert full.call_count == 1
    _assert_gram_factors_agree(A, lam, got, _eigh_gram_svt(G, lam))


def test_gram_svt_raises_on_illegal_argument():
    with mock.patch.object(lapack, "dsyevr", _dsyevr_reporting(-8)), \
            pytest.raises(np.linalg.LinAlgError):
        _gram_svt(np.eye(2), 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_svt_refuses_non_finite_input(bad):
    # refused at the boundary (matrix.as_array), before LAPACK sees it
    M = np.ones((4, 3))
    M[1, 1] = bad
    with mock.patch.object(lapack, "dsyevr", side_effect=AssertionError("LAPACK called")), \
            pytest.raises(ValueError, match="^M has NaN or Inf entries$"):
        svt(M, 0.5)


def test_svt_threshold_past_float_square():
    # lam^2 overflows: nothing is kept, and no LAPACK argument error is raised
    M = np.random.default_rng(6).normal(size=(5, 3))
    assert np.array_equal(svt(M, 1e200), np.zeros((5, 3)))


class TestSoftThreshold:
    def test_matrix_example(self):
        M = np.array([[3.0, -2.0], [0.5, 0.0]])
        assert np.array_equal(soft_threshold(M, 1.0), np.array([[2.0, -1.0], [0.0, 0.0]]))

    def test_beta_zero_identity(self):
        m = np.array([[1.0, -2.0]])
        assert np.array_equal(soft_threshold(m, 0.0), m)

    def test_negative_beta(self):
        with pytest.raises(ValueError):
            soft_threshold(np.zeros((1, 1)), -1.0)

    def test_scalar_grid_oracle(self):
        # 1-D grid minimization of 0.5*(1.7-e)^2 + 0.9|e| at step 1e-5
        e = np.arange(-5.0, 5.0 + 1e-5, 1e-5)
        grid_min = e[(0.5 * (1.7 - e) ** 2 + 0.9 * np.abs(e)).argmin()]
        assert soft_threshold(np.array([[1.7]]), 0.9)[0, 0] == pytest.approx(grid_min, abs=1e-4)
        assert soft_threshold(np.array([[1.7]]), 0.9)[0, 0] == pytest.approx(0.8)

    @settings(max_examples=100)
    @given(st.floats(-50, 50), st.floats(0, 20))
    def test_scalar_prox_formula(self, m, beta):
        out = soft_threshold(np.array([[m]]), beta)[0, 0]
        assert out == pytest.approx(np.sign(m) * max(abs(m) - beta, 0.0), abs=1e-12)


def _copysign_shrink(a, beta, out):
    """The sign-transfer form of the l1 prox, max(|a| - beta, 0) with a's sign
    (zeros take a's sign too); returns ||out||_1. The oracle of `_shrink`."""
    np.abs(a, out=out)
    out -= beta
    np.maximum(out, 0.0, out=out)
    l1 = float(out.sum())
    np.copysign(out, a, out=out)
    return l1


def _assert_same_prox(got, want):
    """Same magnitudes and nonzero signs, bit for bit, and no -0.0 in `got`."""
    assert np.abs(got).tobytes() == np.abs(want).tobytes()
    nonzero = want != 0
    assert np.array_equal(got != 0, nonzero)
    assert np.array_equal(np.signbit(got[nonzero]), np.signbit(want[nonzero]))
    assert not (np.signbit(got) & (got == 0)).any()


def _layout(draw, shape, name):
    """An empty array of `shape`: C-ordered, transposed, or a transposed column slice
    (as a wide input's E rows are in a sweep)."""
    kind = draw(st.sampled_from(["C", "T", "slice"]), label=name)
    if kind == "C":
        return np.empty(shape)
    if kind == "T":
        return np.empty(shape[::-1]).T
    return np.empty((shape[1], shape[0] + 3)).T[1:shape[0] + 1]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_shrink_matches_copysign_oracle(data):
    beta = data.draw(st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 0.5, 1.0, 1e300]),
                               st.floats(0.0, 1e6)), label="beta")
    edges = [beta, -beta, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
             1e300, -1e300, np.nextafter(beta, np.inf), -np.nextafter(beta, 0.0)]
    shape = data.draw(st.tuples(st.integers(1, 9), st.integers(1, 9)), label="shape")
    a = _layout(data.draw, shape, "a")
    a[...] = data.draw(arrays(np.float64, shape, elements=st.one_of(
        st.sampled_from(edges), st.floats(-1e300, 1e300))), label="values")
    out = _layout(data.draw, shape, "out")   # both rules write into it, so sum in its layout
    want_l1 = _copysign_shrink(a, beta, out)
    want = out.copy()
    l1 = _shrink(a, beta, out)
    _assert_same_prox(out, want)
    assert np.float64(l1).tobytes() == np.float64(want_l1).tobytes()
    _assert_same_prox(soft_threshold(a, beta), want)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_empty_input_refused_before_lapack(shape):
    # a DenseMatrix may have no rows (the writers take one); the solver refuses it
    for m in (np.zeros(shape), DenseMatrix(np.zeros(shape))):
        message = rf"empty {shape[0]} x {shape[1]} matrix"
        with pytest.raises(ValueError, match=message):
            svt(m, 1.0)
        with pytest.raises(ValueError, match=message):
            solve(m, SolverConfig(alpha=1.0, beta=1.0))


_OK = np.random.default_rng(5).normal(size=(40, 6)) + 3 * np.outer(np.arange(40), np.ones(6))
_CFG = SolverConfig(alpha=1.0, beta=1.0)
# entry point -> (call on the matrix under test, the argument name its error gives)
_BOUNDARY = {
    "svt": (lambda m: svt(m, 1.0), "M"),
    "soft_threshold": (lambda m: soft_threshold(m, 1.0), "M"),
    "estimate_sigma": (estimate_sigma, "D"),
    "resolve_params": (resolve_params, "D"),
    "resolve_params, all given": (lambda m: resolve_params(m, 1.0, 1.0, 1.0), "D"),
    "auto_config": (auto_config, "D"),
    "objective D": (lambda m: objective(m, _OK, _OK, 1.0, 1.0), "D"),
    "objective X": (lambda m: objective(_OK, m, _OK, 1.0, 1.0), "X"),
    "objective E": (lambda m: objective(_OK, _OK, m, 1.0, 1.0), "E"),
    "optimality_residual D": (lambda m: optimality_residual(m, _OK, _OK, 1.0, 1.0), "D"),
    "optimality_residual X": (lambda m: optimality_residual(_OK, m, _OK, 1.0, 1.0), "X"),
    "optimality_residual E": (lambda m: optimality_residual(_OK, _OK, m, 1.0, 1.0), "E"),
    "embed_studies": (lambda m: embed_studies(m, 1), "X_hat"),
    "solve D": (lambda m: solve(m, _CFG), "D"),
    "solve x0": (lambda m: solve(_OK, _CFG, x0=m), "x0"),
}


@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("entry", list(_BOUNDARY))
def test_non_finite_input_refused_at_the_boundary(entry, bad, layout):
    # one ValueError from matrix.as_array, naming the argument, before any LAPACK
    # or np.linalg call
    call, name = _BOUNDARY[entry]
    m = _OK.copy() if layout == "contiguous" else _OK.T.copy().T   # a strided view
    m[17, 4] = bad
    fail = dict(side_effect=AssertionError("LAPACK or np.linalg called"))
    with mock.patch.object(lapack, "dsyevr", **fail), \
            mock.patch.object(np.linalg, "svd", **fail), \
            mock.patch.object(np.linalg, "qr", **fail), \
            pytest.raises(ValueError, match=f"^{name} has NaN or Inf entries$"):
        call(m)


@pytest.mark.parametrize("dense", [False, True], ids=["raw array", "DenseMatrix"])
def test_finiteness_checked_once(dense):
    # a raw D is checked in one pass by auto_config and one by solve; a DenseMatrix,
    # finite by construction, in none
    D = DenseMatrix(_OK) if dense else _OK.copy()
    data = D.values if dense else D
    for call in (auto_config, lambda m: solve(m, _CFG)):
        with mock.patch.object(np, "isfinite", wraps=np.isfinite) as spy:
            call(D)
        passes = sum(np.shares_memory(c.args[0], data) for c in spy.call_args_list)
        assert passes == (0 if dense else 1)


# entry point -> (call on the value under test and `d`, the fixtures the test builds, the
# message its error starts with); the "> 0" rule also refuses 0
_PARAMS = {
    **{f"SolverConfig {name}": (lambda v, d, name=name: SolverConfig(**{
        **dict(alpha=1.0, beta=1.0), name: v}), f"{name} must be finite and > 0")
       for name in ("alpha", "beta", "rel_tolerance")},
    "SolverConfig detection_threshold": (
        lambda v, d: SolverConfig(alpha=1.0, beta=1.0, detection_threshold=v),
        "threshold must be finite and >= 0"),
    "SolverConfig max_iterations": (
        lambda v, d: SolverConfig(alpha=1.0, beta=1.0, max_iterations=v),
        "max_iterations must be an integer >= 1"),
    # the other two are missing, so their rules would need estimate_sigma
    **{f"resolve_params {name}": (lambda v, d, name=name: resolve_params(_OK, **{name: v}),
                                  f"{name} must be finite and {rule} 0")
       for name, rule in (("alpha", ">"), ("beta", ">"), ("threshold", ">="))},
    "svt": (lambda v, d: svt(_OK, v), "lam must be finite and >= 0"),
    "soft_threshold": (lambda v, d: soft_threshold(_OK, v), "beta must be finite and >= 0"),
    "detect": (lambda v, d: detect(d["result"], v), "threshold must be finite and >= 0"),
    "write_snp_report": (lambda v, d: write_snp_report(
        d["result"], d["dir"] / "shared.tsv", d["dir"] / "specific.tsv", v),
        "threshold must be finite and >= 0"),
    "lrsd evaluate --threshold": (lambda v, d: main(
        ["evaluate", "--x", d["m"], "--e", d["m"], "--truth", d["m"], f"--threshold={v!r}"]),
        "threshold must be finite and >= 0"),
}
_PARAM_CASES = [
    pytest.param(entry, v, id=f"{entry}-{v!r}")
    for entry, (_, message) in _PARAMS.items()
    for v in [math.nan, math.inf, -math.inf, -1.0, "1", None]
    + [0.0] * message.endswith("> 0") + [0, 2.5] * entry.endswith("max_iterations")
    # None asks resolve_params for the rule; the CLI flag parses only floats
    if not (v is None and entry.startswith("resolve_params"))
    and (isinstance(v, float) or not entry.startswith("lrsd"))
]


@pytest.mark.parametrize("entry, value", _PARAM_CASES)
def test_bad_parameter_refused_at_the_boundary(tmp_path, capsys, entry, value):
    # one ValueError from solver._check_param (or the max_iterations rule), before
    # any LAPACK or np.linalg call and before estimate_sigma
    call, message = _PARAMS[entry]
    message = f"{message}, got {value!r}"
    write_tsv(DenseMatrix(np.eye(3)), tmp_path / "m.tsv")
    d = dict(result=solve(np.eye(3), _CFG), dir=tmp_path, m=str(tmp_path / "m.tsv"))
    fail = dict(side_effect=AssertionError("LAPACK, np.linalg or estimate_sigma called"))
    with mock.patch.object(lapack, "dsyevr", **fail), \
            mock.patch.object(np.linalg, "svd", **fail), \
            mock.patch.object(np.linalg, "qr", **fail), \
            mock.patch.object(solver, "estimate_sigma", **fail):
        if entry.startswith("lrsd"):
            assert call(value, d) == 2
            captured = capsys.readouterr()
            assert (captured.err, captured.out) == (f"error: {message}\n", "")
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(value, d)


def test_zero_accepted_where_the_rule_is_at_least_zero():
    assert np.allclose(svt(_OK, 0.0), _OK)   # the exact SVD gives M back
    assert np.array_equal(soft_threshold(_OK, 0.0), _OK)
    assert resolve_params(_OK, 1.0, 1.0, 0.0)[2] == 0.0
    assert SolverConfig(alpha=1.0, beta=1.0, detection_threshold=0.0).detection_threshold == 0.0


def _tall_panel():
    """A 20,000 x 32 rank-one signal plus noise: 20 row blocks of the sweep."""
    rng = np.random.default_rng(13)
    D = rng.normal(size=(20_000, 32))
    D += 3 * np.outer(rng.normal(size=20_000), rng.normal(size=32))
    return D


class TestSigmaAndParams:
    def test_constant_matrix_zero(self):
        assert estimate_sigma(np.full((3, 3), 4.0)) == 0.0

    def test_direct_formula(self):
        assert estimate_sigma(np.array([[1.0, 2, 3, 4, 100]])) == pytest.approx(1.48)

    def test_odd_count(self):
        # both medians run over all entries of the matrix, not per row: the
        # central entry of 0..7 plus an outlier is 4, and the central
        # absolute deviation from it is 2
        a = np.array([[0.0, 1, 2], [3, 4, 5], [6, 7, 1000]])
        assert estimate_sigma(a) == pytest.approx(1.48 * 2.0)

    def test_constant(self):
        for value in (7.0, -3.5):
            for shape in ((4, 5), (1, 1), (2, 2)):
                assert estimate_sigma(np.full(shape, value)) == 0.0

    def test_even_count_midmean(self):
        # median 2.5 (mid-mean of 2 and 3), then median |a - 2.5| = 2.0; a
        # lower or upper central value would give 1.5 or 2.5
        assert estimate_sigma(np.array([[0.0, 1, 2], [3, 6, 7]])) == pytest.approx(1.48 * 2.0)

    def test_accepts_dense_matrix(self):
        a = np.array([[1.0, 3.0, 4.0]])
        assert estimate_sigma(DenseMatrix(a)) == estimate_sigma(a) == pytest.approx(1.48)

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="empty"):
            estimate_sigma(np.zeros((0, 3)))

    @settings(max_examples=50)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40), st.randoms())
    def test_permutation_invariant(self, entries, rnd):
        shuffled = list(entries)
        rnd.shuffle(shuffled)
        a = np.array(entries).reshape(1, -1)
        b = np.array(shuffled).reshape(1, -1)
        assert estimate_sigma(a) == estimate_sigma(b)

    @settings(max_examples=300, deadline=None)
    @given(arrays(float, st.tuples(st.integers(1, 9), st.integers(1, 9)),
                  elements=st.one_of(st.floats(-1e300, 1e300), st.sampled_from([0.0, 1.0, -2.5]))),
           st.booleans())
    def test_in_place_medians_match_copying_expression(self, a, transpose):
        a = a.T if transpose else a   # a strided view as well as a contiguous array
        before = a.copy()
        oracle = 1.48 * float(np.median(np.abs(a - float(np.median(a)))))
        assert estimate_sigma(a) == oracle   # bit for bit
        assert np.array_equal(a, before)   # the caller's array is untouched

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_estimate_sigma_matches_median_oracle(self, data):
        # 1-20 row blocks of 1-6 rows, so that most inputs take the sampled bracket
        rows, blocks = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 20))
        long = rows * (blocks - 1) + data.draw(st.integers(1, rows))
        short = data.draw(st.integers(1, min(long, 5)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        kind = data.draw(st.sampled_from(["normal", "ties", "zeros", "huge"]))
        a = {
            "normal": lambda: rng.normal(size=(long, short)),
            "ties": lambda: rng.integers(-2, 3, size=(long, short)).astype(float),
            "zeros": lambda: rng.choice([0.0, -0.0, 1.0, -1.0], size=(long, short)),
            "huge": lambda: rng.choice([-1.0, 1.0], (long, short)) * 10.0 ** rng.uniform(
                -300, 300, (long, short)),
        }[kind]()
        for value in data.draw(st.lists(st.sampled_from(
                [np.inf, -np.inf, np.nan, 0.0, -0.0, 1e300, -1e300]), max_size=3)):
            a.flat[rng.integers(a.size)] = value
        layout = data.draw(st.sampled_from(["tall", "wide", "transposed"]))
        a = {"tall": a, "wide": a.T.copy(), "transposed": a.T}[layout]
        sample = data.draw(st.sampled_from([4, 16, 64, 1 << 15]))
        before, baseline = a.copy(), threading.active_count()
        finite = np.isfinite(a).all()
        with mock.patch("lrsd.solver._SWEEP_BYTES", 8 * short * rows), \
                mock.patch("lrsd.solver._MEDIAN_SAMPLE", sample):
            for threads in (1, 2, 3, 8):
                with mock.patch("lrsd.solver._sweep_threads", lambda k, t=threads: min(t, k)):
                    if finite:
                        oracle = 1.48 * float(np.median(np.abs(a - float(np.median(a)))))
                        assert estimate_sigma(a) == oracle   # bit for bit
                    else:   # NaN and Inf are refused at the boundary, before any thread
                        with pytest.raises(ValueError, match="^D has NaN or Inf entries$"):
                            estimate_sigma(a)
                assert threading.active_count() == baseline
        assert np.array_equal(a, before, equal_nan=True)   # the caller's array is untouched

    @pytest.mark.parametrize("miss, misses", [("both", 2), ("mad", 1)])
    def test_estimate_sigma_bracket_miss(self, miss, misses):
        # the sample, every 10th row, is built to bracket neither the median nor the MAD
        # (or the median only): np.median takes the whole line instead, with the same result
        rng = np.random.default_rng(12)
        a = rng.normal(size=(400, 4))
        a[::10] = 1e6 if miss == "both" else rng.choice([-1e6, 1e6], size=(40, 4))
        oracle = 1.48 * float(np.median(np.abs(a - float(np.median(a)))))
        with mock.patch("lrsd.solver._SWEEP_BYTES", 8 * 4 * 8), \
                mock.patch("lrsd.solver._MEDIAN_SAMPLE", 160), \
                mock.patch.object(np, "median", wraps=np.median) as whole_line:
            assert estimate_sigma(a) == oracle
        assert whole_line.call_count == misses

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_estimate_sigma_whole_line_and_bracket(self, data):
        # _MEDIAN_SAMPLE = S: below 2S entries the sorted sample is the whole line and
        # gives each median with no bracket pass; from 2S on a bracket pass is made
        rows, short = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
        long = data.draw(st.integers(short, 30))
        size = long * short
        whole = data.draw(st.booleans()) or size < 2
        # size is 2S - 2 or 2S - 1 for the whole line, else 2S or 2S + 1
        sample = size // 2 + 1 if whole else size // 2
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        kind = data.draw(st.sampled_from(["normal", "ties", "zeros"]))
        a = {
            "normal": lambda: rng.normal(size=(long, short)),
            "ties": lambda: rng.integers(-2, 3, size=(long, short)).astype(float),
            "zeros": lambda: rng.choice([0.0, -0.0, 1.0, -1.0], size=(long, short)),
        }[kind]()
        for value in data.draw(st.lists(st.sampled_from([np.inf, -np.inf, np.nan, 0.0, -0.0]),
                                        max_size=3)):
            a.flat[rng.integers(a.size)] = value
        layout = data.draw(st.sampled_from(["tall", "wide", "transposed"]))
        a = {"tall": a, "wide": a.T.copy(), "transposed": a.T}[layout]
        before, baseline = a.copy(), threading.active_count()
        with mock.patch("lrsd.solver._SWEEP_BYTES", 8 * short * rows), \
                mock.patch("lrsd.solver._MEDIAN_SAMPLE", sample), \
                mock.patch("lrsd.solver._sweep_threads", lambda k: min(2, k)), \
                mock.patch("lrsd.solver._bracket_share", wraps=solver._bracket_share) as bracket:
            if np.isfinite(a).all():
                oracle = 1.48 * float(np.median(np.abs(a - float(np.median(a)))))
                assert estimate_sigma(a) == oracle   # bit for bit
                assert bracket.called != whole
            else:   # NaN and Inf are refused at the boundary, before any pass
                with pytest.raises(ValueError, match="^D has NaN or Inf entries$"):
                    estimate_sigma(a)
                assert not bracket.called
        assert np.array_equal(a, before, equal_nan=True)   # the caller's array is untouched
        assert threading.active_count() == baseline

    def test_estimate_sigma_memory_bounded(self):
        # no copy of the input: the sample, the gathered bracket and the block buffers only
        D = _tall_panel()
        with mock.patch("lrsd.solver._sweep_threads", lambda k: min(2, k)):
            tracemalloc.start()
            try:
                sigma = estimate_sigma(D)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert sigma == 1.48 * float(np.median(np.abs(D - float(np.median(D)))))
        assert peak <= 0.4 * D.nbytes

    def test_gaussian_consistency(self):
        rng = np.random.default_rng(3)
        d = rng.normal(0, 2.0, size=(500, 500))
        assert 1.8 <= estimate_sigma(d) <= 2.2

    def test_default_params_examples(self):
        def rule_params(n, p, sigma):
            """The rule alpha, beta and T of an n x p matrix whose sigma_hat is sigma."""
            with mock.patch.object(solver, "estimate_sigma", return_value=sigma):
                return resolve_params(np.broadcast_to(0.0, (n, p)))[:3]

        a, b, T = rule_params(100, 50, 1.0)
        assert a == pytest.approx(17.0711, abs=1e-4)
        assert b == pytest.approx(3.41421, abs=1e-4)
        assert T == pytest.approx(0.3)
        a, b, _ = rule_params(4, 4, 0.5)
        assert (a, b) == (pytest.approx(2.0), pytest.approx(2.0))
        a, b, _ = rule_params(32, 466423, 1.0)
        assert a == pytest.approx(688.61, abs=0.01)
        assert b == pytest.approx(2.0166, abs=1e-3)

    def test_sigma_zero_errors(self):
        # with alpha and beta given, the rule T alone still needs a positive sigma_hat
        for given in ({}, dict(alpha=1.0), dict(alpha=1.0, beta=1.0), dict(threshold=0.5)):
            with pytest.raises(DegenerateInputError, match="alpha and beta"):
                resolve_params(np.full((10, 10), 3.0), **given)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(alpha=0.0, beta=1.0)
        with pytest.raises(ValueError):
            SolverConfig(alpha=1.0, beta=1.0, max_iterations=0)
        with pytest.raises(ValueError):
            SolverConfig(alpha=1.0, beta=1.0, rel_tolerance=0.0)
        with pytest.raises(ValueError):
            SolverConfig(alpha=1.0, beta=1.0, detection_threshold=-1.0)
        nan, inf = float("nan"), float("inf")
        for bad in (
            dict(alpha=nan, beta=1.0),
            dict(alpha=inf, beta=1.0),
            dict(alpha=1.0, beta=nan),
            dict(alpha=1.0, beta=inf),
            dict(alpha=1.0, beta=-1.0),
            dict(alpha=1.0, beta=1.0, rel_tolerance=nan),
            dict(alpha=1.0, beta=1.0, rel_tolerance=inf),
            dict(alpha=1.0, beta=1.0, detection_threshold=nan),
            dict(alpha=1.0, beta=1.0, detection_threshold=inf),
        ):
            with pytest.raises(ValueError, match="finite"):
                SolverConfig(**bad)
        assert SolverConfig(alpha=1.0, beta=1.0, detection_threshold=0.0).detection_threshold == 0


class TestSolve:
    def test_zero_input(self):
        res = solve(np.zeros((4, 3)), SolverConfig(alpha=1.0, beta=1.0))
        assert res.iterations_used == 1
        assert res.converged
        assert np.array_equal(res.X_hat.values, np.zeros((4, 3)))
        assert np.array_equal(res.E_hat.values, np.zeros((4, 3)))

    def test_noiseless_rank_one(self):
        rng = np.random.default_rng(4)
        u = rng.normal(size=20)
        u /= np.linalg.norm(u)
        v = rng.normal(size=10)
        v /= np.linalg.norm(v)
        D = 50.0 * np.outer(u, v)
        cfg = SolverConfig(alpha=3.0, beta=1.0)
        res = solve(D, cfg)
        assert res.rank_of_X == 1
        rel = np.linalg.norm(D - res.X_hat.values - res.E_hat.values) / np.linalg.norm(D)
        assert rel < 0.15
        assert optimality_residual(D, res.X_hat, res.E_hat, 3.0, 1.0) < 1e-4 * 4.0

    def test_trace_monotone_and_converged_flag(self):
        rng = np.random.default_rng(5)
        D = rng.normal(size=(15, 12))
        cfg = auto_config(D)
        res = solve(D, cfg)
        tr = np.array(res.objective_trace)
        assert np.all(np.diff(tr) <= 1e-10)
        assert res.converged
        assert (tr[-2] - tr[-1]) / max(tr[-2], 1.0) < cfg.rel_tolerance

    def test_iteration_cap_not_an_error(self):
        rng = np.random.default_rng(6)
        D = rng.normal(size=(10, 8)) * 5
        res = solve(D, SolverConfig(alpha=1.0, beta=0.5, max_iterations=2))
        assert not res.converged
        assert res.iterations_used == 2

    def test_scaling_covariance(self):
        rng = np.random.default_rng(7)
        D = rng.normal(size=(12, 9)) + 4 * np.outer(rng.normal(size=12), rng.normal(size=9))
        c = 3.7
        cfg = auto_config(D)
        r1 = solve(D, cfg)
        r2 = solve(
            c * D,
            SolverConfig(alpha=c * cfg.alpha, beta=c * cfg.beta,
                         rel_tolerance=cfg.rel_tolerance),
        )
        scale = np.linalg.norm(c * r1.X_hat.values) + np.linalg.norm(c * r1.E_hat.values)
        err = (
            np.linalg.norm(r2.X_hat.values - c * r1.X_hat.values)
            + np.linalg.norm(r2.E_hat.values - c * r1.E_hat.values)
        )
        assert err <= 1e-8 * max(scale, 1.0)

    def test_warm_start_agreement(self):
        rng = np.random.default_rng(8)
        D = rng.normal(size=(10, 7))
        cfg = auto_config(D)
        cold = solve(D, cfg)
        warm = solve(D, cfg, x0=D)
        rel = abs(cold.objective_trace[-1] - warm.objective_trace[-1])
        rel /= max(abs(cold.objective_trace[-1]), 1.0)
        assert rel < 1e-6
        for r in (cold, warm):
            assert (
                optimality_residual(D, r.X_hat, r.E_hat, cfg.alpha, cfg.beta)
                < 1e-4 * (cfg.alpha + cfg.beta)
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("arg", ["D", "x0"])
    def test_rejects_nonfinite(self, arg, bad):
        D = np.ones((4, 3))
        x0 = None
        if arg == "D":
            D[1, 2] = bad
        else:
            x0 = np.zeros((4, 3))
            x0[0, 0] = bad
        with pytest.raises(ValueError, match=f"{arg} has NaN or Inf"):
            solve(D, SolverConfig(alpha=1.0, beta=1.0), x0=x0)

    def test_zero_start_objective_without_svd(self, monkeypatch):
        rng = np.random.default_rng(9)
        D = rng.normal(size=(300, 6)) + 3 * np.outer(rng.normal(size=300), rng.normal(size=6))
        cfg = auto_config(D)
        svd, shapes = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: shapes.append(a.shape) or svd(a, **kw))
        res = solve(D, cfg)
        monkeypatch.undo()
        assert shapes == []
        F0 = objective(D, np.zeros_like(D), np.zeros_like(D), cfg.alpha, cfg.beta)
        assert res.objective_trace[0] == pytest.approx(F0, rel=1e-12)

    def test_solve_memory_bounded(self):
        # two n x p arrays: E and the next E
        D = _tall_panel()
        cfg = auto_config(D)
        with mock.patch("lrsd.solver._sweep_threads", lambda k: min(2, k)):
            tracemalloc.start()
            try:
                res = solve(D, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert res.converged
        assert peak <= 2.5 * D.nbytes

    def test_exit_when_a_sweep_gives_e_back(self):
        # acceptance criterion 7's draw 27: E stays 0, so the first sweep, where the
        # objective criterion fires, already returns what every later sweep would
        rng = np.random.default_rng(7)
        for _ in range(28):
            D = rng.normal(size=(30, 20)) * rng.uniform(0.5, 3)
        cfg = auto_config(D)
        res = solve(D, cfg)
        X, E = res.X_hat.values, res.E_hat.values
        assert res.iterations_used == 1 and res.converged
        assert not E.any()
        X_next, E_next = E.copy(), np.empty(D.shape)
        with solver._Shares(*solver._tall(D)[0].shape) as shares:
            G, _ = shares.sum(solver._gram_share, *solver._tall(D - E))
            F, factors, _ = solver._sweep(G, D, E, E_next, cfg.alpha, cfg.beta, shares)
            # X from the sweep's factors, over a copy of the E it started from
            shares.run(solver._x_share, *solver._tall(D, X_next), *factors[:2])
        assert np.array_equal(X_next, X) and np.array_equal(E_next, E)
        assert F == res.objective_trace[-1]

    def test_labels_propagate(self):
        D = DenseMatrix(np.zeros((2, 2)), row_labels=("a", "b"), col_labels=("x", "y"))
        res = solve(D, SolverConfig(alpha=1.0, beta=1.0))
        assert res.X_hat.row_labels == ("a", "b")
        assert res.E_hat.col_labels == ("x", "y")


def _whole_matrix_solve(d, cfg):
    """solve from X = E = 0 with one whole-matrix pass per step: the blocked sweep's oracle."""
    X, E = np.zeros_like(d), np.zeros_like(d)
    F = float(0.5 * ((d - E) ** 2).sum() + cfg.beta * np.abs(E).sum())
    R, X_new, E_new = np.empty(d.shape), np.empty(d.shape), np.empty(d.shape)
    trace, settle = [F], 0
    for iterations in range(1, cfg.max_iterations + 1):
        np.subtract(d, E, out=R)
        _, s_thr = _svt(R, cfg.alpha, X_new)
        np.subtract(d, X_new, out=R)
        l1 = _shrink(R, cfg.beta, E_new)
        R -= E_new
        F_new = float(0.5 * np.vdot(R, R) + cfg.alpha * s_thr.sum() + cfg.beta * l1)
        stalled = np.array_equal(E_new, E)
        X, X_new = X_new, X
        E, E_new = E_new, E
        trace.append(F_new)
        if (F - F_new) / max(F, 1.0) < cfg.rel_tolerance:
            settle += 1
            if stalled or settle > 2:
                break
        else:
            settle = 0
        F = F_new
    return X, E, trace, iterations


def _two_pass_solve(d, cfg):
    """solve from X = E = 0, one block at a time, with two passes over the row blocks per
    sweep (the Gram matrix of d - E, then X, E and the objective): the fused sweep's oracle.
    The first Gram pass also sums the zero-start objective, block by block."""
    wide = d.shape[0] < d.shape[1]
    X, E = np.zeros_like(d), np.zeros_like(d)
    X_new, E_new = np.empty(d.shape), np.empty(d.shape)
    n, p = d.T.shape if wide else d.shape
    rows = max(1, solver._SWEEP_BYTES // (8 * max(p, 1)))
    bounds = [(i, min(i + rows, n)) for i in range(0, n, rows)]
    buf = np.empty((min(rows, n), p))
    F, settle = None, 0
    for iterations in range(1, cfg.max_iterations + 1):
        dt, Et, Xt, E_newt = (a.T if wide else a for a in (d, E, X_new, E_new))
        G = np.zeros((p, p))
        rr = l1 = 0.0
        for i, j in bounds:
            r = np.subtract(dt[i:j], Et[i:j], out=buf[: j - i])
            G += r.T @ r
            if F is None:
                rr += float(np.square(r).sum())
                l1 += float(np.abs(Et[i:j]).sum())
        if F is None:
            F = float(0.5 * rr + cfg.beta * l1)
            trace = [F]
        factors = _gram_svt(G, cfg.alpha)
        if factors is None:
            factors = _svd_factors(np.subtract(dt, Et, out=Xt), cfg.alpha)
        Vk, W, s_thr = factors
        l1 = rr = 0.0
        for i, j in bounds:
            r = np.subtract(dt[i:j], Et[i:j], out=buf[: j - i])
            np.matmul(r @ Vk, W.T, out=Xt[i:j])
            np.subtract(dt[i:j], Xt[i:j], out=r)
            l1 += _shrink(r, cfg.beta, E_newt[i:j])
            r -= E_newt[i:j]
            rr += float(np.vdot(r, r))
        F_new = 0.5 * rr + cfg.alpha * float(s_thr.sum()) + cfg.beta * l1
        stalled = np.array_equal(E_new, E)
        X, X_new = X_new, X
        E, E_new = E_new, E
        trace.append(F_new)
        if (F - F_new) / max(F, 1.0) < cfg.rel_tolerance:
            settle += 1
            if stalled or settle > 2:
                break
        else:
            settle = 0
        F = F_new
    return X, E, trace, iterations


@st.composite
def blocked_solve_cases(draw, blocks=None):
    """Low rank + spikes + noise, with the long side set against the sweep's block rows.

    With `blocks` (a strategy), the long side spans exactly that many blocks.
    Returns the matrix, its config, the block rows and whether the exact-SVD
    branch (s1/alpha > GRAM_MAX_RATIO) is meant to run.
    """
    rows = draw(st.integers(2, 6))
    if blocks is None:
        long = draw(st.sampled_from([1, rows - 1, rows, rows + 1, rows * draw(st.integers(2, 5))
                                     + draw(st.integers(0, rows - 1))]))
    else:
        long = rows * (draw(blocks) - 1) + draw(st.integers(1, rows))
    short = draw(st.integers(1, min(long, 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sigma = 10.0 ** draw(st.floats(-2, 2))
    alpha = (math.sqrt(long) + math.sqrt(short)) * sigma
    beta = 2.0 * alpha / math.sqrt(long)
    rank = draw(st.integers(0, short))
    d = sigma * rng.normal(size=(long, short))
    d += (rng.normal(size=(long, rank)) * alpha * rng.uniform(0.5, 10, rank)) @ (
        rng.normal(size=(rank, short)) / np.sqrt(long * short))
    spikes = rng.random(d.shape) < 0.1
    d[spikes] += rng.choice([-1, 1], spikes.sum()) * beta * rng.uniform(1, 20, spikes.sum())
    exact_svd = draw(st.booleans())
    if exact_svd:
        # far past the Gram route's cut on every sweep
        alpha = np.linalg.norm(d, 2) / 10.0 ** draw(st.floats(5, 8))
    if draw(st.booleans()) and short < long:
        d = d.T.copy()
    return d, SolverConfig(alpha=alpha, beta=beta, max_iterations=300), rows, exact_svd


@settings(max_examples=200, deadline=None)
@given(blocked_solve_cases())
def test_blocked_solve_matches_whole_matrix_oracle(case):
    d, cfg, rows, exact_svd = case
    X, E, trace, iterations = _whole_matrix_solve(d, cfg)
    with mock.patch("lrsd.solver._SWEEP_BYTES", 8 * min(d.shape) * rows), \
            mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd_spy, \
            mock.patch.object(lapack, "dsyevr", wraps=lapack.dsyevr) as eig_spy:
        res = solve(d, cfg)
    assert svd_spy.called == exact_svd
    # the Gram matrix is always the small one: a wide input is swept transposed
    assert {c.args[0].shape for c in eig_spy.call_args_list} == {(min(d.shape),) * 2}
    # and only its eigenpairs above alpha^2 are asked for
    assert {(c.kwargs["range"], c.kwargs["vl"]) for c in eig_spy.call_args_list} == {
        ("V", cfg.alpha * cfg.alpha)}
    assert res.iterations_used == iterations
    scale = max(np.linalg.norm(d), 1e-300)
    assert np.linalg.norm(res.X_hat.values - X) <= 1e-12 * scale
    assert np.linalg.norm(res.E_hat.values - E) <= 1e-12 * scale
    assert res.objective_trace == pytest.approx(trace, rel=1e-12)
    if rows >= d.shape[0] >= d.shape[1]:  # one tall block: the whole-matrix arithmetic, bit for bit
        assert np.array_equal(res.X_hat.values, X)
        assert np.array_equal(res.E_hat.values, E)
        assert res.objective_trace == tuple(trace)


@settings(max_examples=60, deadline=None)
@given(blocked_solve_cases(blocks=st.integers(1, 20)))
def test_shared_sweep_matches_two_pass_oracle(case):
    d, cfg, rows, exact_svd = case
    results = []
    with mock.patch("lrsd.solver._SWEEP_BYTES", 8 * min(d.shape) * rows), \
            mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd_spy:
        X, E, trace, iterations = _two_pass_solve(d, cfg)
        for threads in (1, 2, 3, 8):
            with mock.patch("lrsd.solver._sweep_threads", lambda k, t=threads: min(t, k)):
                results.append(solve(d, cfg))
    assert svd_spy.called == exact_svd
    # the shares' sums are added in share order whichever thread made them
    res = results[0]
    for other in results[1:]:
        assert np.array_equal(other.X_hat.values, res.X_hat.values)
        assert np.array_equal(other.E_hat.values, res.E_hat.values)
        assert other.objective_trace == res.objective_trace
        assert other.iterations_used == res.iterations_used
    assert res.iterations_used == iterations
    if -(-max(d.shape) // rows) <= solver._MAX_SHARES:  # one block per share: bit for bit
        assert np.array_equal(res.X_hat.values, X)
        assert np.array_equal(res.E_hat.values, E)
        assert res.objective_trace == tuple(trace)
    else:
        scale = max(np.linalg.norm(d), 1e-300)
        assert np.linalg.norm(res.X_hat.values - X) <= 1e-12 * scale
        assert np.linalg.norm(res.E_hat.values - E) <= 1e-12 * scale
        assert res.objective_trace == pytest.approx(trace, rel=1e-12)


@pytest.mark.parametrize("rows, shares, warm", [
    (100, 1, False),   # one block: the fused pass, as for many blocks
    (100, 1, True),
    (5, 8, False),     # 20 blocks: the one Gram pass of its own, the first sweep's
    (5, 8, True),      # a warm start takes objective() instead
])
def test_only_the_first_sweep_takes_the_zero_start_sums(rows, shares, warm):
    rng = np.random.default_rng(14)
    d = rng.normal(size=(100, 3)) + 3 * np.outer(rng.normal(size=100), rng.normal(size=3))
    cfg = auto_config(d)
    with mock.patch("lrsd.solver._SWEEP_BYTES", 8 * 3 * rows), \
            mock.patch("lrsd.solver._gram_share", wraps=solver._gram_share) as gram, \
            mock.patch("lrsd.solver._sweep_share", wraps=solver._sweep_share) as sweep, \
            mock.patch.object(lapack, "dsyevr", wraps=lapack.dsyevr) as eig, \
            mock.patch("lrsd.solver.objective", wraps=objective) as whole:
        res = solve(d, cfg, x0=np.zeros_like(d) if warm else None)
    # one Gram pass per solve; then one fused pass and one eigensolve per sweep
    assert gram.call_count == shares
    assert sweep.call_count == res.iterations_used * shares
    assert eig.call_count == res.iterations_used
    assert whole.call_count == warm
    if not warm:
        assert res.objective_trace[0] == pytest.approx(
            objective(d, np.zeros_like(d), np.zeros_like(d), cfg.alpha, cfg.beta), rel=1e-12)


def test_shares_under_thread_switch_stress():
    # 8 threads on fewer cores, switched every microsecond: a share taken twice or never,
    # or a result stored in the wrong slot, would change the bits
    rng = np.random.default_rng(11)
    d = rng.normal(size=(120, 4)) + 3 * np.outer(rng.normal(size=120), rng.normal(size=4))
    cfg = auto_config(d)
    with mock.patch("lrsd.solver._SWEEP_BYTES", 8 * 4 * 6):   # 20 blocks in 8 shares
        with mock.patch("lrsd.solver._sweep_threads", lambda k: 1):
            want = solve(d, cfg)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch("lrsd.solver._sweep_threads", lambda k: min(8, k)):
                got = [solve(d, cfg) for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
    for res in got:
        assert np.array_equal(res.X_hat.values, want.X_hat.values)
        assert np.array_equal(res.E_hat.values, want.E_hat.values)
        assert res.objective_trace == want.objective_trace


@pytest.mark.parametrize("n, sizes", [
    (0, [0]), (1, [1]), (3000, [1, 1, 1]), (8 * 1024, [1] * 8), (9 * 1024, [2] + [1] * 7),
    (20_000, [4, 3, 3, 3, 2, 2, 2, 1]), (466_423, [101, 88, 76, 63, 51, 38, 26, 13]),
])
def test_shares_hold_every_block_in_order(n, sizes):
    with solver._Shares(n, 32) as shares:   # 1,024 rows per block at p = 32
        assert [len(share) for share in shares.shares] == sizes
        blocks = [block for share in shares.shares for block in share]
    assert blocks == [(i, min(i + 1024, n)) for i in range(0, n, 1024)]


@pytest.mark.parametrize("env, cpus, shares, threads", [
    ({}, 4, 8, 1),                                   # unset: the BLAS threads every call itself
    ({"OPENBLAS_NUM_THREADS": "1"}, 4, 8, 4),
    ({"OPENBLAS_NUM_THREADS": "1"}, 16, 8, 8),
    ({"OPENBLAS_NUM_THREADS": "1"}, 4, 3, 3),
    ({"OPENBLAS_NUM_THREADS": "1"}, 4, 1, 1),
    ({"OMP_NUM_THREADS": "1"}, 2, 8, 2),
    ({"MKL_NUM_THREADS": " 1 "}, 2, 8, 2),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 8, 1),  # the first set wins
    ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "1"}, 4, 8, 4),   # empty is unset
])
def test_sweep_thread_rule(monkeypatch, env, cpus, shares, threads):
    for var in solver._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(solver, "_usable_cpus", lambda: cpus)
    assert solver._sweep_threads(shares) == threads


def test_one_block_solve_starts_no_thread(monkeypatch):
    d = generate(benchmark_grid(0)[0]).data
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    with mock.patch("lrsd.solver._usable_cpus", return_value=8), \
            mock.patch.object(threading.Thread, "start", side_effect=AssertionError("started")):
        res = solve(d, auto_config(d))
    assert res.converged


@pytest.mark.parametrize("fail_at", [None, 1, 7, 40])
def test_solve_joins_its_threads(fail_at):
    # 20 blocks in 8 shares on 4 threads; the k-th soft-threshold of a block raises
    rng = np.random.default_rng(10)
    d = rng.normal(size=(100, 3)) + 3 * np.outer(rng.normal(size=100), rng.normal(size=3))
    cfg = auto_config(d)
    calls = itertools.count(1)

    def shrink(*args):
        if next(calls) == fail_at:
            raise RuntimeError("shrink failed")
        return _shrink(*args)

    start = threading.Thread.start
    baseline = threading.active_count()
    with mock.patch("lrsd.solver._SWEEP_BYTES", 8 * 3 * 5), \
            mock.patch("lrsd.solver._sweep_threads", lambda k: min(4, k)), \
            mock.patch("lrsd.solver._shrink", side_effect=shrink), \
            mock.patch.object(threading.Thread, "start", autospec=True,
                              side_effect=start) as started:
        if fail_at is None:
            assert solve(d, cfg).converged
        else:
            with pytest.raises(RuntimeError, match="shrink failed"):
                solve(d, cfg)
    assert started.called   # the pool starts its workers as it needs them, up to 4
    assert threading.active_count() == baseline


def test_grid_solves_match_full_eigh_oracle():
    # 24 simulation-grid instances: the same iterates as with every eigenpair, up to round-off
    for spec in benchmark_grid(0) + benchmark_grid(1):
        d = generate(spec).data
        cfg = auto_config(d)
        res = solve(d, cfg)
        with mock.patch("lrsd.solver._gram_svt", wraps=_eigh_gram_svt) as full_eigh:
            oracle = solve(d, cfg)
        assert full_eigh.call_count == oracle.iterations_used
        assert res.iterations_used == oracle.iterations_used, spec
        assert res.nnz_of_E == oracle.nnz_of_E, spec
        T = cfg.detection_threshold
        assert np.array_equal(detect(res, T), detect(oracle, T)), spec


def _wide_panel():
    """A 32 x 5,000 rank-one signal plus noise: swept transposed, in 5 row blocks."""
    rng = np.random.default_rng(15)
    return rng.normal(size=(32, 5_000)) + 3 * np.outer(rng.normal(size=32), rng.normal(size=5_000))


@pytest.mark.parametrize("inputs", [
    lambda: [generate(spec).data for spec in benchmark_grid(0) + benchmark_grid(1)],
    lambda: [_tall_panel()],   # 20 row blocks
    lambda: [_wide_panel()],
], ids=["grid", "tall", "wide"])
def test_solve_matches_copysign_prox_oracle(inputs):
    # the clip form moves no bit of X or of the trace; E differs only in its zeros' signs
    for d in inputs():
        cfg = auto_config(d)
        with mock.patch("lrsd.solver._shrink", _copysign_shrink):
            oracle = solve(d, cfg)
        res = solve(d, cfg)
        assert res.X_hat.values.tobytes() == oracle.X_hat.values.tobytes()
        assert np.array(res.objective_trace).tobytes() == np.array(oracle.objective_trace).tobytes()
        assert res.iterations_used == oracle.iterations_used
        assert (res.rank_of_X, res.nnz_of_E) == (oracle.rank_of_X, oracle.nnz_of_E)
        E, E_oracle = res.E_hat.values, oracle.E_hat.values
        assert np.array_equal(E, E_oracle)
        assert (np.signbit(E_oracle) & (E_oracle == 0)).any()   # the oracle's -0.0 cells
        assert not (np.signbit(E) & (E == 0)).any()


def test_solve_memory_bounded():
    # E and the next E are the only n x p arrays solve holds
    rng = np.random.default_rng(0)
    D = rng.normal(size=(20_000, 32)) + 3 * np.outer(rng.normal(size=20_000), rng.normal(size=32))
    cfg = auto_config(D)
    tracemalloc.start()
    try:
        solve(D, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * D.nbytes


def test_fallback_solve_memory_bounded():
    # the exact-SVD fallback takes V and s from the blocks' R factors: no n x p U
    D = _tall_panel()
    alpha = np.linalg.norm(D, 2) / 1e5
    with mock.patch("lrsd.solver._svd_factors", wraps=_svd_factors) as fallback:
        tracemalloc.start()
        try:
            solve(D, SolverConfig(alpha=alpha, beta=2 * alpha / math.sqrt(D.shape[0])))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert fallback.call_count > 0
    assert peak <= 2.5 * D.nbytes


@st.composite
def right_svd_cases(draw):
    """(U * s) @ V^T, tall or wide, of one row block (`_block_rows`) or many, of any rank.

    Rank 0 is the zero matrix; the singular values below s1 spread over up to
    12 decades, or repeat, so that some right vectors are not unique.
    """
    n, p = draw(st.one_of(
        st.tuples(st.integers(1, 40), st.integers(1, 40)),        # one block, tall or wide
        st.tuples(st.integers(1025, 3000), st.just(32)),          # tall, 2 or 3 blocks
        st.tuples(st.integers(7, 60), st.integers(4097, 5000)),   # wide, 1 to 10 blocks
    ))
    rank = draw(st.integers(0, min(n, p)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s1 = 10.0 ** draw(st.floats(-3, 3))
    rest = s1 * 10.0 ** -rng.uniform(0, draw(st.floats(0, 12)), max(rank - 1, 0))
    if draw(st.booleans()):
        rest = np.repeat(rest[: (len(rest) + 1) // 2], 2)[: len(rest)]
    s = np.r_[s1, rest][:rank]
    U = np.linalg.qr(rng.normal(size=(n, rank)))[0]
    V = np.linalg.qr(rng.normal(size=(p, rank)))[0]
    return (U * s) @ V.T


@settings(max_examples=200, deadline=None)
@given(right_svd_cases())
def test_right_svd_matches_svd(a):
    # values to 64 eps s1; a right vector, where it is unique (its singular value
    # 1e-6 s1 clear of every other, the zeros of a wide matrix's null space
    # included), to 256 eps s1 / gap up to sign, as perturbation theory bounds it
    eps = np.finfo(float).eps
    _, s_ref, Vt_ref = np.linalg.svd(a, full_matrices=False)
    s, Vt = _right_svd(a)
    assert s.shape == s_ref.shape and Vt.shape == Vt_ref.shape
    assert np.abs(s - s_ref).max() <= 64 * eps * s_ref[0]
    spectrum = np.r_[s_ref, np.zeros(a.shape[1] - s_ref.size)]
    for j in range(s_ref.size):
        gap = np.delete(np.abs(spectrum - spectrum[j]), j).min(initial=np.inf)
        if gap > 1e-6 * s_ref[0]:
            err = min(np.linalg.norm(Vt[j] - Vt_ref[j]), np.linalg.norm(Vt[j] + Vt_ref[j]))
            assert err <= 256 * eps * s_ref[0] / gap


def test_calls_memory_bounded():
    # the two bool masks and one block's |X|: no n x p float temporary
    rng = np.random.default_rng(5)
    X, E = rng.normal(size=(2, 60_000, 32))
    tracemalloc.start()
    try:
        _calls(X, E, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.3 * X.nbytes


class TestOptimalityResidual:
    def test_zero_not_optimal_for_large_data(self):
        D = np.diag([10.0, 0.0])
        assert optimality_residual(D, np.zeros((2, 2)), np.zeros((2, 2)), 1.0, 1.0) > 0

    def test_scalar_case(self):
        # D=5, alpha large: optimum is X=0, E=soft(5, beta=1)=4
        D = np.array([[5.0]])
        E = np.array([[4.0]])
        assert optimality_residual(D, np.zeros((1, 1)), E, 100.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            optimality_residual(np.zeros((2, 2)), np.zeros((3, 2)), np.zeros((2, 2)), 1, 1)


class TestDetect:
    def test_threshold_zero_reports_nonzero(self):
        res = solve(np.array([[5.0, 0.0], [0.0, 0.0]]), SolverConfig(alpha=100.0, beta=1.0))
        mask = detect(res, 0.0)
        assert mask[0, 0]
        assert not mask[1, 1]

    def test_huge_threshold_empty(self):
        res = solve(np.array([[5.0, 0.0], [0.0, 0.0]]), SolverConfig(alpha=1.0, beta=0.5))
        assert not detect(res, 1e9).any()

    def test_negative_threshold(self):
        res = solve(np.zeros((2, 2)), SolverConfig(alpha=1.0, beta=1.0))
        for T in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="threshold must be finite and >= 0"):
                detect(res, T)


@pytest.mark.parametrize("n", [1, 1024, 1025, 5000])   # 1, 1, 2 and 5 row blocks at p = 32
def test_blockwise_detect_matches_whole_matrix_rule(n):
    rng = np.random.default_rng(n)
    T = 0.75
    X, E = rng.normal(size=(2, n, 32))
    for a in (X, E):   # entries at exactly +-T and at -0.0 are not calls
        a.flat[rng.choice(a.size, size=min(a.size, 40), replace=False)] = rng.choice(
            [T, -T, -0.0, 0.0], size=min(a.size, 40))
    mask = _detect(X, E, T)
    assert mask.dtype == bool
    assert np.array_equal(mask, np.logical_or(*_calls(X, E, T)))
    assert np.array_equal(mask, (np.abs(X) > T) | (np.abs(E) > T))


def test_blockwise_detect_memory_bounded():
    rng = np.random.default_rng(3)
    X, E = rng.normal(size=(2, 60_000, 32))
    tracemalloc.start()
    try:
        mask = _detect(X, E, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * mask.nbytes


@pytest.mark.parametrize(
    "s, rank",
    [
        ([], 0),
        ([0.0, 0.0], 0),
        ([3.0, 1.0, 2e-9], 2),
        # s1 below RANK_TOL: the cut is RANK_TOL**2, not RANK_TOL*s1
        ([1e-12, 5e-13, 1e-19], 2),
    ],
)
def test_numerical_rank(s, rank):
    assert numerical_rank(np.array(s)) == rank


def test_auto_config_degenerate_input():
    with pytest.raises(DegenerateInputError):
        auto_config(np.full((5, 5), 3.0))
