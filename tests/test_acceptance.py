"""Acceptance suite: prints one PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete. The benchmark criteria take a couple of minutes; the scale probe
needs ~1 GB of RAM.
"""

import time

import numpy as np
import pytest

from lrsd.matrix import DenseMatrix
from lrsd.metrics import benchmark, benchmark_grid
from lrsd.reporting import embed_studies
from lrsd.simulate import PatternSpec, generate
from lrsd.solver import (
    SolverConfig,
    auto_config,
    detect,
    estimate_sigma,
    objective,
    optimality_residual,
    soft_threshold,
    solve,
    svt,
)
from lrsd.sumstats import StudySummary, align
from reference import panel_to_studies, single_linkage_groups

N_SEEDS = 20

# published F1 targets per (pattern, divisor), tolerance +/- 0.08
F1_TARGETS = {
    1: {1.0: 0.83, 1.2: 0.78, 1.5: 0.70},
    2: {1.0: 0.85, 1.2: 0.80, 1.5: 0.71},
    3: {1.0: 0.85, 1.2: 0.79, 1.5: 0.76},
    4: {1.0: 0.82, 1.2: 0.77, 1.5: 0.71},
}
SNR_TARGETS = {1: 2.5, 2: 3.3, 3: 2.6, 4: 2.9}


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def benchmark_rows():
    specs = benchmark_grid()
    cells = [(s.pattern_id, s.signal_divisor) for s in specs]
    assert sorted(cells) == sorted((p, d) for p in F1_TARGETS for d in F1_TARGETS[p])
    return benchmark(specs, N_SEEDS)


@pytest.mark.parametrize("pattern", [1, 2, 3, 4])
def test_criterion_1_to_4_table_reproduction(benchmark_rows, pattern):
    rows = [r for r in benchmark_rows if r.pattern_id == pattern]
    devs = {r.divisor: r.f1_mean - F1_TARGETS[pattern][r.divisor] for r in rows}
    ok = all(abs(d) <= 0.08 for d in devs.values())
    detail = (
        f"pattern {pattern} mean F1 over {N_SEEDS} seeds vs published, "
        + ", ".join(f"div {d:g}: {devs[d]:+.3f}" for d in sorted(devs))
    )
    _report(pattern, ok, detail)


def test_criterion_5_snr_fidelity():
    devs = {}
    for pid, target in SNR_TARGETS.items():
        snrs = [generate(PatternSpec(pid, seed=s)).snr for s in range(50)]
        devs[pid] = np.mean(snrs) - target
    ok = all(
        abs(devs[pid]) <= (0.25 if pid == 2 else 0.15) for pid in SNR_TARGETS
    )
    _report(5, ok, "unscaled SNR deviations " + ", ".join(
        f"pattern {p}: {d:+.3f}" for p, d in devs.items()))


def test_criterion_6_prox_oracles():
    rng = np.random.default_rng(6)
    # soft-threshold vs 1-D grid minimization, entrywise
    grid = np.arange(-5.0, 5.0 + 1e-4, 1e-4)
    worst = 0.0
    for _ in range(100):
        M = rng.uniform(-4, 4, size=(5, 5))
        beta = rng.uniform(0, 3)
        out = soft_threshold(M, beta)
        obj = 0.5 * (M.reshape(-1, 1) - grid) ** 2 + beta * np.abs(grid)
        best = grid[obj.argmin(axis=1)].reshape(5, 5)
        worst = max(worst, np.abs(out - best).max())
    soft_ok = worst <= 1e-4

    # svt output beats 1000 random norm-1e-3 perturbations in every trial
    svt_ok = True
    for _ in range(5):
        M = rng.normal(size=(4, 3))
        lam = rng.uniform(0.2, 2.0)
        X = svt(M, lam)

        def f(Z):
            return 0.5 * ((M - Z) ** 2).sum() + lam * np.linalg.svd(Z, compute_uv=False).sum()

        base = f(X)
        for _ in range(1000):
            P = rng.normal(size=X.shape)
            P *= 1e-3 / np.linalg.norm(P)
            if f(X + P) < base - 1e-12:
                svt_ok = False
    _report(6, soft_ok and svt_ok,
            f"soft-threshold worst grid deviation {worst:.2e}; svt perturbation probe "
            f"{'clean' if svt_ok else 'violated'}")


def test_criterion_7_descent_and_optimality():
    rng = np.random.default_rng(7)
    worst_resid = 0.0
    worst_gap = 0.0
    monotone = True
    for _ in range(50):
        D = rng.normal(size=(30, 20)) * rng.uniform(0.5, 3)
        cfg = auto_config(D)
        res = solve(D, cfg)
        tr = np.array(res.objective_trace)
        monotone &= bool(np.all(np.diff(tr) <= 1e-10))
        resid = optimality_residual(D, res.X_hat, res.E_hat, cfg.alpha, cfg.beta)
        worst_resid = max(worst_resid, resid / (1e-4 * (cfg.alpha + cfg.beta)))
        warm = solve(D, cfg, x0=D)
        gap = abs(res.objective_trace[-1] - warm.objective_trace[-1])
        gap /= max(abs(res.objective_trace[-1]), 1.0)
        worst_gap = max(worst_gap, gap / 1e-6)
    ok = monotone and worst_resid < 1.0 and worst_gap < 1.0
    _report(7, ok,
            f"monotone {monotone}, worst residual/tolerance {worst_resid:.3f}, "
            f"worst warm-start gap/tolerance {worst_gap:.3f}")


def test_criterion_8_sigma_accuracy():
    rng = np.random.default_rng(8)
    counts = {}
    for sigma in (0.5, 1.0, 2.0):
        hits = sum(
            abs(estimate_sigma(rng.normal(0, sigma, size=(200, 200))) - sigma) <= 0.1 * sigma
            for _ in range(20)
        )
        counts[sigma] = hits
    ok = all(h >= 18 for h in counts.values())
    _report(8, ok, "within 10% in " + ", ".join(
        f"{h}/20 (sigma={s:g})" for s, h in counts.items()))


def test_criterion_9_noiseless_support_recovery():
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        u = np.zeros(20)
        u[:10] = 1.0
        u /= np.linalg.norm(u)
        v = np.zeros(10)
        v[:5] = 1.0
        v /= np.linalg.norm(v)
        D = 50.0 * np.outer(u, v)
        truth = D != 0
        off_block = [(i, j) for i in range(20) for j in range(10) if not truth[i, j]]
        for k in rng.choice(len(off_block), size=5, replace=False):
            i, j = off_block[k]
            D[i, j] += 10.0
            truth[i, j] = True
        res = solve(D, SolverConfig(alpha=3.0, beta=1.0))
        hits += np.array_equal(detect(res, 1.0), truth)
    _report(9, hits == 10, f"exact support recovery in {hits}/10 seeds")


def test_criterion_10_scale_probe():
    rng = np.random.default_rng(10)
    n, p = 466423, 32
    Z = np.abs(rng.normal(size=(n, p)))
    Z[:2000, :10] += 3.0       # weak shared block
    spikes = rng.choice(n * p, size=5000, replace=False)
    Z.reshape(-1)[spikes] += 8.0
    t0 = time.monotonic()
    cfg = auto_config(Z)
    res = solve(Z, cfg)
    elapsed = time.monotonic() - t0
    ok = res.converged and elapsed < 600
    _report(10, ok,
            f"{n}x{p} decomposed in {elapsed:.1f}s, {res.iterations_used} iterations, "
            f"converged {res.converged}, rank(X) {res.rank_of_X}")


def test_criterion_11_desk_scale_proxies():
    # real-data findings are not reproducible without the datasets; the
    # planted-cluster embedding and the ingestion round trip stand in
    rng = np.random.default_rng(11)
    groups = np.repeat([0, 1, 2], 4)
    V = np.zeros((12, 3))
    for g in range(3):
        V[groups == g, g] = 1.0
    V += 0.01 * rng.normal(size=V.shape)
    U, _ = np.linalg.qr(rng.normal(size=(300, 3)))
    X = U @ np.diag([50, 40, 30]) @ V.T
    emb = embed_studies(DenseMatrix(X), 3)
    labels = single_linkage_groups(emb, radius=10.0)
    clusters_ok = len(set(labels)) == 3 and all(
        len({l for l, g2 in zip(labels, groups) if g2 == g}) == 1 for g in range(3)
    )

    studies = [
        StudySummary("s1", {"rs1": 0.5, "rs2": 1e-6}),
        StudySummary("s2", {"rs2": 1e-7, "rs3": 0.9}),
    ]
    panel = align(studies, 1)
    again = align(panel_to_studies(panel), 1)
    roundtrip_ok = (
        again.snp_ids == panel.snp_ids
        and np.allclose(again.z_matrix.values, panel.z_matrix.values)
        and np.array_equal(again.imputed_mask, panel.imputed_mask)
    )
    _report(11, clusters_ok and roundtrip_ok,
            f"planted clusters recovered: {clusters_ok}; ingestion round trip: {roundtrip_ok}")
