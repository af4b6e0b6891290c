"""Low-rank + sparse decomposition of a noisy matrix.

Minimizes  0.5*||D - X - E||_F^2 + alpha*||X||_* + beta*||E||_1  by
alternating two exact proximal steps: singular value thresholding for the
low-rank component X and elementwise soft-thresholding for the sparse
component E. The objective is jointly convex, so the alternation reaches the
unique global minimum regardless of initialization.

Singular value thresholding works through the small Gram matrix: for an
n x p input A with p <= n (A is transposed when n < p), the eigenpairs of
the p x p matrix A^T A give the singular values s and right singular
vectors V, and X = (A V_k) (V_k diag((s_k - lam)/s_k))^T over s_k > lam.
That costs two thin products with A instead of a thin SVD of it, and the
shrunk singular values it returns give the nuclear norm of X for free.
Squaring A costs digits in the small singular values only: the error in X,
relative to ||A||, grows like machine epsilon times s1/lam. When lam is 0
or s1/lam exceeds GRAM_MAX_RATIO, the step falls back to an exact SVD.

Only the eigenpairs of A^T A above lam^2 are computed: LAPACK's dsyevr
with RANGE='V' reduces it to tridiagonal form, then finds just those
eigenvalues by bisection and their vectors by inverse iteration, so past
the reduction the cost grows with the k pairs kept, not with p. In the
simulation grid k is 1 or 2 of p = 50 in 97% of sweeps (never above 6),
and the step takes under half the time of a full eigendecomposition.
Should inverse iteration fail on a tight cluster, every eigenpair is
computed instead.

A sweep of `solve` is bound by memory traffic, not flops, so it streams
row blocks of the tall orientation (about 256 KB each) twice through one
block-sized buffer instead of making whole-matrix passes: the first pass
sums the Gram matrix of D - E block by block, the second recomputes each
block of D - E, forms its rows of X and of E, and adds its share of the
objective. Only the Gram sum and the objective's sums see the blocking, so
a tall input of at most one block gives the whole-matrix arithmetic bit for
bit, and a larger one agrees with it to round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .matrix import DenseMatrix, as_array

MAD_TO_SIGMA = 1.48          # normal-consistency factor for the MAD scale estimate
BETA_RATIO = 2.0             # beta = BETA_RATIO * alpha / sqrt(larger dimension)
DETECTION_SCALE = 0.3        # auto threshold T = DETECTION_SCALE * sigma_hat
RANK_TOL = 1e-9              # singular values below RANK_TOL*s1 count as zero
GRAM_MAX_RATIO = 1e4         # SVT leaves the Gram route for an exact SVD above this s1/lam
_POLISH_ITERS = 2            # extra sweeps after the objective criterion fires
_SWEEP_BYTES = 1 << 18       # bytes per row block of a sweep: 1,024 float64 rows at p = 32
_RULE_TEXT = dict(           # provenance of a rule-derived value, as the manifest shows it
    alpha="(sqrt(n)+sqrt(p))*sigma_hat",
    beta="2*alpha/sqrt(max(n,p))",
    threshold="0.3*sigma_hat",
)


class DegenerateInputError(ValueError):
    """Raised when auto-parameterization is impossible (e.g. constant input)."""


@dataclass(frozen=True)
class SolverConfig:
    alpha: float
    beta: float
    max_iterations: int = 500
    rel_tolerance: float = 1e-7
    detection_threshold: float | str = "auto"

    def __post_init__(self):
        # `not 0 < v < inf` holds for NaN as well, so NaN is refused with the infinities
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):
            raise ValueError(
                f"alpha and beta must be finite and > 0, got alpha={self.alpha!r}, "
                f"beta={self.beta!r}"
            )
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0 < self.rel_tolerance < math.inf:
            raise ValueError(f"rel_tolerance must be finite and > 0, got {self.rel_tolerance!r}")
        T = self.detection_threshold
        if T != "auto" and not 0 <= T < math.inf:
            raise ValueError(f"detection_threshold must be finite and >= 0 or 'auto', got {T!r}")


@dataclass(frozen=True)
class SolverResult:
    X_hat: DenseMatrix
    E_hat: DenseMatrix
    objective_trace: tuple[float, ...]
    iterations_used: int
    converged: bool
    rank_of_X: int
    nnz_of_E: int


def _check_same_shape(*arrays):
    shapes = {a.shape for a in arrays}
    if len(shapes) > 1:
        raise ValueError(f"shape mismatch: {sorted(shapes)}")


def objective(D, X, E, alpha: float, beta: float) -> float:
    """Value of 0.5*||D-X-E||_F^2 + alpha*||X||_* + beta*||E||_1."""
    d, x, e = as_array(D), as_array(X), as_array(E)
    _check_same_shape(d, x, e)
    nuc = np.linalg.svd(x, compute_uv=False).sum()
    return float(0.5 * ((d - x - e) ** 2).sum() + alpha * nuc + beta * np.abs(e).sum())


def _gram_svt(G: np.ndarray, lam: float):
    """SVT factors from the Gram matrix G = A^T A of some A, for lam > 0.

    Returns (V_k, W, shrunk singular values) with SVT(A) = (A V_k) W^T, or
    None when s1/lam > GRAM_MAX_RATIO and the exact SVD must be used. Only
    the eigenpairs of G above lam^2 are computed (dsyevr with RANGE='V'),
    unless inverse iteration fails and all of them are (dsyevd); the shrunk
    values are padded with zeros to G's order, as if every pair were known.
    Raises LinAlgError when G is not finite or the eigensolver fails.
    """
    if not np.isfinite(G).all():  # dsyevr would find no eigenvalue above vl and say nothing
        raise np.linalg.LinAlgError("Gram matrix has NaN or Inf entries")
    vl = min(lam * lam, np.finfo(float).max)  # dsyevr refuses vl = vu = inf
    w, V, m, _, info = lapack.dsyevr(G, range="V", vl=vl, vu=np.inf)
    if info > 0:
        # inverse iteration missed a vector of a tight cluster: take every pair instead
        w, V, info = lapack.dsyevd(G)
        keep = w > vl
        w, V, m = w[keep], V[:, keep], int(keep.sum())
    if info != 0:
        raise np.linalg.LinAlgError(f"symmetric eigensolver failed with info={info}")
    s = np.sqrt(w[:m][::-1])
    if m and s[0] > GRAM_MAX_RATIO * lam:
        return None
    Vk = V[:, :m][:, ::-1]
    # fl(lam*lam) may round below lam^2, so an s just past the cut can sit at lam - ulp
    s_thr = np.maximum(s - lam, 0.0)
    return Vk, Vk * (s_thr / s), np.r_[s_thr, np.zeros(G.shape[0] - m)]


def _svd_svt(a: np.ndarray, lam: float, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SVT of a by lam through an exact thin SVD; out may be a itself."""
    U, s, Vt = np.linalg.svd(a, full_matrices=False)
    s_thr = np.maximum(s - lam, 0.0)
    return np.matmul(U * s_thr, Vt, out=out), s_thr


def _svt(a: np.ndarray, lam: float, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SVT of a by lam written into out; returns out and the shrunk singular values.

    The shrunk values max(s - lam, 0) come sorted non-increasing, one per
    min(n, p). Uses the Gram route of the module docstring unless lam is 0
    or s1/lam > GRAM_MAX_RATIO, where it takes an exact thin SVD instead.
    """
    if lam > 0:
        wide = a.shape[0] < a.shape[1]
        b = a.T if wide else a
        factors = _gram_svt(b.T @ b, lam)
        if factors is not None:
            Vk, W, s_thr = factors
            if wide:
                np.matmul(W, Vk.T @ a, out=out)
            else:
                np.matmul(a @ Vk, W.T, out=out)
            return out, s_thr
    return _svd_svt(a, lam, out)


def svt(M, lam: float) -> np.ndarray:
    """Singular value thresholding: shrink each singular value by lam.

    Exact proximal operator of lam*||.||_* (the minimizer of
    0.5*||M - X||_F^2 + lam*||X||_*). Computed from the eigenpairs of the
    smaller Gram matrix, M^T M or M M^T, that lie above lam^2 (only those
    are computed, see the module docstring); an exact SVD of M is used instead
    when lam is 0 or the largest singular value exceeds GRAM_MAX_RATIO*lam,
    where squaring M would lose too many digits.
    """
    if lam < 0:
        raise ValueError("svt threshold must be >= 0")
    a = as_array(M)
    return _svt(a, lam, np.empty(a.shape))[0]


def _shrink(a: np.ndarray, beta: float, out: np.ndarray) -> float:
    """Soft-threshold a by beta into out; returns ||out||_1."""
    np.abs(a, out=out)
    out -= beta
    np.maximum(out, 0.0, out=out)
    l1 = float(out.sum())
    np.copysign(out, a, out=out)
    return l1


def soft_threshold(M, beta: float) -> np.ndarray:
    """Elementwise shrinkage sign(m)*max(|m|-beta, 0); the l1 prox."""
    if beta < 0:
        raise ValueError("soft threshold must be >= 0")
    a = as_array(M)
    out = np.empty(a.shape)
    _shrink(a, beta, out)
    return out


def estimate_sigma(D) -> float:
    """Robust noise scale: 1.48 * median(|D - median(D)|).

    Medians of an even number of entries are the mid-mean of the two central
    ones. Returns 0 for constant input; callers doing auto-parameterization
    must treat that as degenerate.
    """
    a = as_array(D)
    if a.size == 0:
        raise ValueError("median of an empty matrix is undefined")
    w = a.copy()   # the one n x p copy; both medians partition it in place
    np.subtract(w, np.median(w, overwrite_input=True), out=w)
    np.abs(w, out=w)
    return MAD_TO_SIGMA * float(np.median(w, overwrite_input=True))


def default_params(n: int, p: int, sigma: float) -> tuple[float, float]:
    """Default (alpha, beta) from the matrix shape and the noise scale.

    alpha = (sqrt(n) + sqrt(p)) * sigma, the expected spectral norm of an
    n x p Gaussian noise matrix; beta = 2*alpha/sqrt(m) with m the larger
    dimension.
    """
    if n < 1 or p < 1:
        raise ValueError("matrix dimensions must be >= 1")
    if sigma <= 0:
        raise DegenerateInputError(
            "noise scale estimate is not positive; supply alpha and beta explicitly"
        )
    alpha = (math.sqrt(n) + math.sqrt(p)) * sigma
    beta = BETA_RATIO * alpha / math.sqrt(max(n, p))
    return alpha, beta


def auto_threshold(sigma: float) -> float:
    """Default detection threshold, proportional to the noise scale."""
    if sigma <= 0:
        raise DegenerateInputError("cannot derive a detection threshold from sigma <= 0")
    return DETECTION_SCALE * sigma


def resolve_params(
    D, alpha=None, beta=None, threshold=None
) -> tuple[float, float, float, dict[str, str]]:
    """Resolve (alpha, beta, T): given values are kept, missing ones follow the rules.

    The noise scale is estimated only when a value is missing. A missing
    beta follows the rule alpha even when alpha itself is given; its
    provenance then names that rule alpha. Returns alpha, beta, T and the
    provenance of each value as manifest text, keyed sigma_hat (present only
    when estimated), alpha, beta, threshold.
    """
    a = as_array(D)
    given = dict(alpha=alpha, beta=beta, threshold=threshold)
    provenance, rules = {}, {}
    if None in given.values():
        sigma = estimate_sigma(a)
        provenance["sigma_hat"] = f"{sigma!r} (rule: 1.48*MAD)"
    if alpha is None or beta is None:
        rules["alpha"], rules["beta"] = default_params(a.shape[0], a.shape[1], sigma)
    if threshold is None:
        rules["threshold"] = auto_threshold(sigma)
    for name, value in given.items():
        if value is None:
            given[name] = rules[name]
            rule = _RULE_TEXT[name]
            if name == "beta" and alpha is not None:
                rule += f" with rule alpha={rules['alpha']!r}"
            provenance[name] = f"{rules[name]!r} (rule: {rule})"
        else:
            provenance[name] = f"{value!r} (flag)"
    return given["alpha"], given["beta"], given["threshold"], provenance


def auto_config(D) -> SolverConfig:
    """SolverConfig with alpha, beta and threshold resolved from the data."""
    alpha, beta, T, _ = resolve_params(D)
    return SolverConfig(alpha=alpha, beta=beta, detection_threshold=T)


def numerical_rank(s: np.ndarray) -> int:
    """Number of singular values s (sorted non-increasing) counted as nonzero.

    A value counts when it exceeds RANK_TOL * max(s[0], RANK_TOL); the floor
    keeps a spectrum whose leading value is itself below RANK_TOL from
    counting round-off as rank.
    """
    s1 = s[0] if s.size else 0.0
    return int((s > RANK_TOL * max(s1, RANK_TOL)).sum()) if s1 > 0 else 0


def _sweep(d, E, X_new, E_new, alpha: float, beta: float) -> tuple[float, np.ndarray]:
    """One sweep: X_new = SVT(d - E, alpha), then E_new = soft(d - X_new, beta).

    Returns the objective at (X_new, E_new) and the shrunk singular values.
    The two passes over row blocks are those of the module docstring; a
    wide input is swept through its transpose. When the Gram route does not
    apply, d - E is built in X_new for the exact SVD instead.
    """
    wide = d.shape[0] < d.shape[1]
    dt, Et, Xt, E_newt = (a.T if wide else a for a in (d, E, X_new, E_new))
    n, p = dt.shape
    rows = max(1, _SWEEP_BYTES // (8 * max(p, 1)))
    bounds = [(i, min(i + rows, n)) for i in range(0, n, rows)]
    buf = np.empty((min(rows, n), p))
    G = np.zeros((p, p))
    for i, j in bounds:
        r = np.subtract(dt[i:j], Et[i:j], out=buf[: j - i])
        G += r.T @ r
    factors = _gram_svt(G, alpha)
    if factors is None:
        np.subtract(d, E, out=X_new)
        s_thr = _svd_svt(X_new, alpha, X_new)[1]
    else:
        Vk, W, s_thr = factors
    l1 = rr = 0.0
    for i, j in bounds:
        r = buf[: j - i]
        if factors is not None:
            np.subtract(dt[i:j], Et[i:j], out=r)
            np.matmul(r @ Vk, W.T, out=Xt[i:j])
        np.subtract(dt[i:j], Xt[i:j], out=r)
        l1 += _shrink(r, beta, E_newt[i:j])
        r -= E_newt[i:j]   # the residual d - X_new - E_new
        rr += float(np.vdot(r, r))
    return 0.5 * rr + alpha * float(s_thr.sum()) + beta * l1, s_thr


def solve(D, config: SolverConfig, x0=None, e0=None) -> SolverResult:
    """Alternate SVT and soft-thresholding from X = E = 0 until convergence.

    Convergence: relative objective decrease below config.rel_tolerance.
    A couple of extra sweeps are run after the criterion first fires so the
    returned pair also satisfies the first-order optimality conditions
    tightly; the trace stays non-increasing throughout. Hitting the
    iteration cap is reported via converged=False, not an error. D, x0 and
    e0 must be finite; NaN or Inf raises ValueError before any work.
    """
    for name, m in (("D", D), ("x0", x0), ("e0", e0)):
        if m is not None and not np.isfinite(as_array(m)).all():
            raise ValueError(f"solve: {name} has NaN or Inf entries")
    d = as_array(D)
    labels = {}
    if isinstance(D, DenseMatrix):
        labels = dict(row_labels=D.row_labels, col_labels=D.col_labels)
    X = np.zeros_like(d) if x0 is None else np.array(as_array(x0), dtype=float)
    E = np.zeros_like(d) if e0 is None else np.array(as_array(e0), dtype=float)
    _check_same_shape(d, X, E)

    alpha, beta = config.alpha, config.beta
    if x0 is None:  # X = 0: no SVD needed for its nuclear norm
        F = float(0.5 * ((d - E) ** 2).sum() + beta * np.abs(E).sum())
    else:
        F = objective(d, X, E, alpha, beta)
    X_new, E_new = np.empty(d.shape), np.empty(d.shape)
    trace = [F]
    converged = False
    iterations = 0
    settle = 0
    for _ in range(config.max_iterations):
        iterations += 1
        F_new, s_thr = _sweep(d, E, X_new, E_new, alpha, beta)
        X, X_new = X_new, X
        E, E_new = E_new, E
        trace.append(F_new)
        if (F - F_new) / max(F, 1.0) < config.rel_tolerance:
            converged = True
            settle += 1
            # a sweep that reproduced its input exactly has nothing left to polish
            if settle > _POLISH_ITERS or (
                np.array_equal(X, X_new) and np.array_equal(E, E_new)
            ):
                break
        else:
            converged = False
            settle = 0
        F = F_new

    return SolverResult(
        X_hat=DenseMatrix(X, **labels),
        E_hat=DenseMatrix(E, **labels),
        objective_trace=tuple(trace),
        iterations_used=iterations,
        converged=converged,
        rank_of_X=numerical_rank(s_thr),
        nnz_of_E=int(np.count_nonzero(E)),
    )


def optimality_residual(D, X, E, alpha: float, beta: float) -> float:
    """Violation of the first-order conditions at (X, E); zero iff optimal.

    With R = D - X - E and X = U diag(s) V^T on its positive singular space,
    optimality requires U^T R V = alpha*I, R to vanish on the mixed
    row/column spaces of X, ||R||_2 <= alpha off X's singular spaces, and
    entrywise |R| <= beta where E = 0 with R = beta*sign(E) where E != 0.
    Returns the largest violation among these conditions.
    """
    d, x, e = as_array(D), as_array(X), as_array(E)
    _check_same_shape(d, x, e)
    R = d - x - e

    U, s, Vt = np.linalg.svd(x, full_matrices=False)
    r = numerical_rank(s)
    terms = []
    if r > 0:
        U1, V1t = U[:, :r], Vt[:r, :]
        core = U1.T @ R @ V1t.T
        terms.append(np.linalg.norm(core - alpha * np.eye(r)))
        terms.append(np.linalg.norm(U1.T @ R - core @ V1t))
        terms.append(np.linalg.norm(R @ V1t.T - U1 @ core))
        R_perp = R - U1 @ (U1.T @ R) - (R @ V1t.T) @ V1t + U1 @ core @ V1t
    else:
        R_perp = R
    spec = np.linalg.svd(R_perp, compute_uv=False)
    terms.append(max(0.0, float(spec[0]) - alpha) if spec.size else 0.0)

    zero = e == 0
    viol = np.where(zero, np.maximum(np.abs(R) - beta, 0.0), np.abs(R - beta * np.sign(e)))
    terms.append(float(viol.max()) if viol.size else 0.0)
    return float(max(terms))


def detect(result: SolverResult, T: float) -> np.ndarray:
    """Boolean mask of entries reported as signal: |X| > T or |E| > T."""
    if not T >= 0:  # NaN fails too
        raise ValueError(f"detection threshold must be >= 0, got {T!r}")
    return (np.abs(result.X_hat.values) > T) | (np.abs(result.E_hat.values) > T)
