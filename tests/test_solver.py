import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, target
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import lapack

from lrsd.matrix import DenseMatrix
from lrsd.metrics import benchmark_grid
from lrsd.simulate import generate
from lrsd.solver import (
    GRAM_MAX_RATIO,
    DegenerateInputError,
    SolverConfig,
    auto_config,
    default_params,
    detect,
    estimate_sigma,
    numerical_rank,
    objective,
    optimality_residual,
    soft_threshold,
    solve,
    svt,
    _gram_svt,
    _shrink,
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
    return Vk, Vk * ((s[:k] - lam) / s[:k]), np.maximum(s - lam, 0.0)


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
    assert s_thr.shape == s_thr0.shape == (A.shape[1],)
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
    M = np.ones((4, 3))
    M[1, 1] = bad
    with pytest.raises(np.linalg.LinAlgError):
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

    def test_gaussian_consistency(self):
        rng = np.random.default_rng(3)
        d = rng.normal(0, 2.0, size=(500, 500))
        assert 1.8 <= estimate_sigma(d) <= 2.2

    def test_default_params_examples(self):
        a, b = default_params(100, 50, 1.0)
        assert a == pytest.approx(17.0711, abs=1e-4)
        assert b == pytest.approx(3.41421, abs=1e-4)
        a, b = default_params(4, 4, 0.5)
        assert (a, b) == (pytest.approx(2.0), pytest.approx(2.0))
        a, b = default_params(32, 466423, 1.0)
        assert a == pytest.approx(688.61, abs=0.01)
        assert b == pytest.approx(2.0166, abs=1e-3)

    def test_sigma_zero_errors(self):
        with pytest.raises(DegenerateInputError):
            default_params(10, 10, 0.0)


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
    @pytest.mark.parametrize("arg", ["D", "x0", "e0"])
    def test_rejects_nonfinite(self, arg, bad):
        D = np.ones((4, 3))
        kwargs = dict(x0=None, e0=None)
        if arg == "D":
            D[1, 2] = bad
        else:
            kwargs[arg] = np.zeros((4, 3))
            kwargs[arg][0, 0] = bad
        with pytest.raises(ValueError, match=f"{arg} has NaN or Inf"):
            solve(D, SolverConfig(alpha=1.0, beta=1.0), **kwargs)

    @pytest.mark.parametrize("with_e0", [False, True])
    def test_zero_start_objective_without_svd(self, with_e0, monkeypatch):
        rng = np.random.default_rng(9)
        D = rng.normal(size=(300, 6)) + 3 * np.outer(rng.normal(size=300), rng.normal(size=6))
        E0 = soft_threshold(D, 2.0) if with_e0 else np.zeros_like(D)
        cfg = auto_config(D)
        svd, shapes = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: shapes.append(a.shape) or svd(a, **kw))
        res = solve(D, cfg, e0=E0 if with_e0 else None)
        monkeypatch.undo()
        assert shapes == []
        F0 = objective(D, np.zeros_like(D), E0, cfg.alpha, cfg.beta)
        assert res.objective_trace[0] == pytest.approx(F0, rel=1e-12)

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
        stalled = np.array_equal(X_new, X) and np.array_equal(E_new, E)
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
def blocked_solve_cases(draw):
    """Low rank + spikes + noise, with the long side set against the sweep's block rows.

    Returns the matrix, its config, the block rows and whether the exact-SVD
    branch (s1/alpha > GRAM_MAX_RATIO) is meant to run.
    """
    rows = draw(st.integers(2, 6))
    long = draw(st.sampled_from([1, rows - 1, rows, rows + 1, rows * draw(st.integers(2, 5))
                                 + draw(st.integers(0, rows - 1))]))
    short = draw(st.integers(1, min(long, 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sigma = 10.0 ** draw(st.floats(-2, 2))
    alpha, beta = default_params(long, short, sigma)
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


def test_solve_memory_bounded():
    # X, E and the next sweep's pair are the only n x p arrays solve holds
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
            with pytest.raises(ValueError, match="threshold must be >= 0"):
                detect(res, T)


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
