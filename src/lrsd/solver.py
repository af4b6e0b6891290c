"""Low-rank + sparse decomposition of a noisy matrix.

Minimizes  0.5*||D - X - E||_F^2 + alpha*||X||_* + beta*||E||_1  by
alternating two exact proximal steps: singular value thresholding for the
low-rank component X and elementwise soft-thresholding for the sparse
component E. The objective is jointly convex, so the alternation reaches the
unique global minimum regardless of initialization.

The soft-threshold is the identity minus the projection onto the
l-infinity ball of radius beta (the Moreau decomposition of the l1 prox):
E = u - clip(u, -beta, beta), one clip and one subtraction per entry. Its
nonzero entries are those of sign(u)*max(|u| - beta, 0) bit for bit, and
its zeros are u - u = +0.0, so no entry of E is -0.0.

Every public function that takes a matrix goes through `matrix.as_array`,
which refuses a NaN, +Inf or -Inf entry of a raw array with one ValueError
that names the argument, before any LAPACK call; a DenseMatrix is finite by
construction and is not checked again. So nothing below handles NaN. Only
the Gram matrix of the SVT step is checked for itself, as a finite input
can still overflow it.

Singular value thresholding works through the small Gram matrix: for an
n x p input A with p <= n (A is transposed when n < p), the eigenpairs of
the p x p matrix A^T A give the singular values s and right singular
vectors V, and X = (A V_k) (V_k diag((s_k - lam)/s_k))^T over s_k > lam.
That costs two thin products with A instead of a thin SVD of it, and the
shrunk singular values it returns give the nuclear norm of X for free.
Squaring A costs digits in the small singular values only: the error in X,
relative to ||A||, grows like machine epsilon times s1/lam. When lam is 0
or s1/lam exceeds GRAM_MAX_RATIO, an exact SVD gives V and s instead: that
of the R factors of A's row blocks, stacked, so that no n x p U is formed
(`_right_svd`, which also gives `objective` its nuclear norm and
`reporting.embed_studies` its singular pairs).
Either way the step yields the factors (V_k, W, shrunk values), with
W = V_k diag((s_k - lam)/s_k), and X = (A V_k) W^T; the shrunk values are
those of the k pairs kept, as the zeros of the rest add nothing to the
nuclear norm or the rank.

Only the eigenpairs of A^T A above lam^2 are computed: LAPACK's dsyevr
with RANGE='V' reduces it to tridiagonal form, then finds just those
eigenvalues by bisection and their vectors by inverse iteration, so past
the reduction the cost grows with the k pairs kept, not with p. In the
simulation grid k is 1 or 2 of p = 50 in 97% of sweeps (never above 6),
and the step takes under half the time of a full eigendecomposition.
Should inverse iteration fail on a tight cluster, every eigenpair is
computed instead.

A sweep of `solve` is bound by memory traffic, not flops, so it makes one
pass over row blocks of the tall orientation (about 256 KB each) instead of
whole-matrix passes. `solve` keeps X only as the sweep's SVT factors: per
block the pass recomputes D - E, forms the block's rows of X from the
factors in the block's buffer, writes its rows of E_new, adds its
share of the objective and, while the block is still in cache, its term of
the Gram matrix of D - E_new, which the next sweep's SVT needs; only the
first sweep's Gram matrix takes a pass of its own. Every input takes this
pass, whatever its number of blocks, so `solve` holds two n x p arrays, E
and E_new. X is formed once, after the last sweep, by one more pass over
the same blocks that writes it over the E it came from. The blocks go, in
order, into min(8, blocks) contiguous shares whose bounds depend only on
the shape and which shrink along the matrix, so that the shares taken
last are short and no thread sits idle long at the end. When
the BLAS runs one thread per call (OPENBLAS_NUM_THREADS=1 or the like), the
shares go, through `Executor.map`, to a pool of one thread per usable CPU
(numpy and BLAS release the interpreter lock); else they run inline, as
the BLAS threads already take every core. Each share gets a block-sized
buffer of its own and returns its own Gram matrix, l1 sum and
squared-residual sum, and these are added in share order, so the results
do not depend on the number of CPUs. Only these sums see the blocking: a
tall input of one block gives the whole-matrix arithmetic bit for bit,
one of at most 8 blocks the same iterates as summing block by block, and
a larger one agrees with both to round-off. The threads live only inside
`solve` and `estimate_sigma`, which join them before they return.

The work before the first sweep runs on the same shares and threads. The
noise scale 1.48 * median(|D - median(D)|) behind the default parameters
is exact and equal bit for bit to `np.median` taken twice. Each median
sorts a sample of every s-th row (about 32,768 entries). When s is 1 (an
input of fewer than 65,536 entries, every input of one block among them)
the sorted sample is the whole matrix and gives the median directly.
Else it takes a bracket a few sqrt(sample) ranks either side of the
central rank, and in one pass over the shares counts the entries below
the bracket and gathers those inside it (for the second median, of
|D - median| formed block by block in each share's buffer), with no
n x p copy; the central value is selected from the gathered ones. Should
the bracket miss it, `np.median` takes the whole matrix instead. `solve`
starts from E = 0, so the first sweep's Gram matrix is that of D. From
X = 0 the starting objective is 0.5*||D||_F^2, which the same pass sums
as it reads every block of D, so it costs no pass of its own; a tall
input of one block sums it as a whole-matrix reduction would, bit for bit,
and a larger one to round-off.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .matrix import DenseMatrix, _usable_cpus, as_array

MAD_TO_SIGMA = 1.48          # normal-consistency factor for the MAD scale estimate
BETA_RATIO = 2.0             # beta = BETA_RATIO * alpha / sqrt(larger dimension)
DETECTION_SCALE = 0.3        # auto threshold T = DETECTION_SCALE * sigma_hat
RANK_TOL = 1e-9              # singular values below RANK_TOL*s1 count as zero
GRAM_MAX_RATIO = 1e4         # SVT leaves the Gram route for an exact SVD above this s1/lam
_POLISH_ITERS = 2            # extra sweeps after the objective criterion fires
_SWEEP_BYTES = 1 << 18       # bytes per row block of a sweep: 1,024 float64 rows at p = 32
_MAX_SHARES = 8              # a sweep's row blocks go in at most this many contiguous shares
_MEDIAN_SAMPLE = 1 << 15     # entries sampled to bracket each median of estimate_sigma
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "MKL_NUM_THREADS",
                     "OMP_NUM_THREADS")   # the BLAS's thread count, first set wins
_RULE_TEXT = dict(           # provenance of a rule-derived value, as the manifest shows it
    sigma_hat=f"{MAD_TO_SIGMA:g}*MAD",
    alpha="(sqrt(n)+sqrt(p))*sigma_hat",
    beta=f"{BETA_RATIO:g}*alpha/sqrt(max(n,p))",
    threshold=f"{DETECTION_SCALE:g}*sigma_hat",
)


class DegenerateInputError(ValueError):
    """Raised when auto-parameterization is impossible (e.g. constant input)."""


def _check_param(name: str, value, positive: bool = False) -> None:
    """Refuse a solver parameter unless it is a real number, finite and >= 0,
    or > 0 when `positive` is set; NaN, a string and None are refused.

    The one rule for every scalar parameter: alpha, beta, rel_tolerance, the
    detection threshold T, svt's lam and soft_threshold's beta. Raises
    ValueError `{name} must be finite and >= 0, got {value!r}` (or `> 0`).
    """
    if not (isinstance(value, numbers.Real) and (0 < value if positive else 0 <= value)
            and value < math.inf):
        raise ValueError(f"{name} must be finite and {'>' if positive else '>='} 0, got {value!r}")


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of `solve` and the detection threshold, checked on construction.

    alpha, beta and rel_tolerance must be finite and > 0, detection_threshold
    finite and >= 0 unless it is "auto" (`_check_param`, under the name
    `threshold`), and max_iterations an integer >= 1. A bad field raises
    ValueError naming it, before any solve.
    """

    alpha: float
    beta: float
    max_iterations: int = 500
    rel_tolerance: float = 1e-7
    detection_threshold: float | str = "auto"

    def __post_init__(self):
        _check_param("alpha", self.alpha, positive=True)
        _check_param("beta", self.beta, positive=True)
        if not (isinstance(self.max_iterations, numbers.Integral) and self.max_iterations >= 1):
            raise ValueError(f"max_iterations must be an integer >= 1, got {self.max_iterations!r}")
        _check_param("rel_tolerance", self.rel_tolerance, positive=True)
        if self.detection_threshold != "auto":
            _check_param("threshold", self.detection_threshold)


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
    d, x, e = as_array(D, "D"), as_array(X, "X"), as_array(E, "E")
    _check_same_shape(d, x, e)
    nuc = _right_svd(_tall(x)[0])[0].sum()
    return float(0.5 * ((d - x - e) ** 2).sum() + alpha * nuc + beta * np.abs(e).sum())


def _gram_svt(G: np.ndarray, lam: float):
    """SVT factors from the Gram matrix G = A^T A of some A, for lam > 0.

    Returns (V_k, W, shrunk singular values) with SVT(A) = (A V_k) W^T, or
    None when s1/lam > GRAM_MAX_RATIO and the exact SVD must be used. Only
    the eigenpairs of G above lam^2 are computed (dsyevr with RANGE='V'),
    unless inverse iteration fails and all of them are (dsyevd); only the
    shrunk values of those kept are returned, one per column of V_k. Raises
    LinAlgError when G is not finite (a finite A can overflow its Gram
    matrix) or the eigensolver fails.
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
    return Vk, Vk * (s_thr / s), s_thr


def _right_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The singular values s and right singular vectors Vt of a, as the thin
    `np.linalg.svd` gives them, with no U.

    They are those of the R factors of a's row blocks (`_block_rows`),
    stacked: a = diag(Q_i) [R_i] with orthonormal Q_i, so the stack has a's
    singular values and right vectors, squares nothing, and holds at most p
    rows per block (Chan's R-SVD, block by block); no n x p U is formed.
    """
    rows = _block_rows(a.shape[1])
    R = np.concatenate([np.linalg.qr(a[i : i + rows], mode="r") for i in range(0, len(a), rows)])
    return np.linalg.svd(R, full_matrices=False)[1:]


def _svd_factors(a: np.ndarray, lam: float):
    """The SVT factors of `_gram_svt` for a tall a, through the exact `_right_svd`.

    V_k holds the right singular vectors whose s > lam and W = V_k diag(s_thr / s);
    the shrunk values are those of V_k's columns.
    """
    s, Vt = _right_svd(a)
    k = int((s > lam).sum())
    s_thr = s[:k] - lam
    Vk = Vt[:k].T
    return Vk, Vk * (s_thr / s[:k]), s_thr


def _svt(a: np.ndarray, lam: float, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SVT of a by lam written into out; returns out and the shrunk singular values.

    The shrunk values s - lam of the singular values kept (s > lam) come
    sorted non-increasing; those shrunk to 0 are left out. The factors come
    from the Gram route of the module docstring unless lam is 0 or
    s1/lam > GRAM_MAX_RATIO, where an exact thin SVD gives them instead;
    either way X = (A V_k) W^T in the tall orientation.
    """
    b, o = _tall(a, out)
    factors = _gram_svt(b.T @ b, lam) if lam > 0 else None
    Vk, W, s_thr = _svd_factors(b, lam) if factors is None else factors
    np.matmul(b @ Vk, W.T, out=o)
    return out, s_thr


def svt(M, lam: float) -> np.ndarray:
    """Singular value thresholding: shrink each singular value by lam.

    Exact proximal operator of lam*||.||_* (the minimizer of
    0.5*||M - X||_F^2 + lam*||X||_*). Computed from the eigenpairs of the
    smaller Gram matrix, M^T M or M M^T, that lie above lam^2 (only those
    are computed, see the module docstring); an exact SVD of M is used instead
    when lam is 0 or the largest singular value exceeds GRAM_MAX_RATIO*lam,
    where squaring M would lose too many digits. lam must be finite and >= 0
    (`_check_param`); it is checked before any work.
    """
    _check_param("lam", lam)
    a = as_array(M, "M")
    return _svt(a, lam, np.empty(a.shape))[0]


def _shrink(a: np.ndarray, beta: float, out: np.ndarray) -> float:
    """Soft-threshold a by beta into out, as a - clip(a, -beta, beta) (see the
    module docstring); returns ||out||_1.

    Where |a| > beta this is fl(|a| - beta) with a's sign, the bits of
    sign(a)*max(|a|-beta, 0); elsewhere it is a - a = +0.0. The l1 sum is
    taken over out itself, in its layout: summing a copy of another layout
    would add in another order and move the objective by round-off.
    """
    np.clip(a, -beta, beta, out=out)
    np.subtract(a, out, out=out)
    return float(np.abs(out).sum())


def soft_threshold(M, beta: float) -> np.ndarray:
    """Elementwise shrinkage sign(m)*max(|m|-beta, 0), the l1 prox, computed
    as m - clip(m, -beta, beta): its zeros are +0.0. beta must be finite and
    >= 0 (`_check_param`); it is checked before any work."""
    _check_param("beta", beta)
    a = as_array(M, "M")
    out = np.empty(a.shape)
    _shrink(a, beta, out)
    return out


def estimate_sigma(D) -> float:
    """Robust noise scale: 1.48 * median(|D - median(D)|).

    Medians of an even number of entries are the mid-mean of the two central
    ones. Exact: both medians are those of `np.median`, bit for bit. Each
    median is taken by `_median`: from a sorted sample of D when that is all
    of D, else selected from a sampled bracket over the blocks of `solve`'s
    sweeps, on its threads, with no n x p copy (see the module docstring).
    D with a NaN or Inf entry is refused by `as_array`. Returns 0 for
    constant input; callers doing auto-parameterization must treat that as
    degenerate.
    """
    at = _tall(as_array(D, "D"))[0]
    with _Shares(*at.shape) as shares:
        return MAD_TO_SIGMA * _median(shares, at, _median(shares, at))


def _median(shares, at, med=None) -> float:
    """np.median of at's entries, or of |at - med| when med is given, bit for bit.

    The sorted entries of every s-th row (about _MEDIAN_SAMPLE of them) give
    a bracket [lo, hi] a few sqrt(m) sample ranks either side of the central
    one(s). One pass over the shares counts the entries below it and gathers
    those inside, and the central ones are selected from these. When s is 1
    (fewer than 2 * _MEDIAN_SAMPLE entries) the sorted sample is the whole
    line and gives them directly, with no pass. Returns the mean of the one
    or two central values, as np.median does. `as_array` has refused NaN, so
    an entry <= hi that is not in the bracket lies below it. Should the
    bracket miss them, np.median takes the whole line instead.
    """
    size = at.size
    k0, k1 = (size - 1) // 2, size // 2
    sample = at[:: max(1, size // _MEDIAN_SAMPLE)]
    if med is not None:
        sample = np.abs(sample - med)
    sample = np.sort(sample, axis=None)
    m = sample.size
    if m == size:   # the sample is the whole line
        return float(np.mean(sample[k0 : k1 + 1]))
    w = 3 * math.sqrt(m)
    lo = sample[max(0, math.floor(k0 * m / size - w))]
    hi = sample[min(m - 1, math.ceil(k1 * m / size + w))]
    le, pieces = shares.sum(_bracket_share, at, med, lo, hi)
    inside = np.concatenate(pieces)
    below = le - inside.size
    if below <= k0 and k1 < le:
        inside.partition([k0 - below, k1 - below])
        return float(np.mean(inside[k0 - below : k1 - below + 1]))
    if med is None:
        line = at.copy()
    else:
        line = np.subtract(at, med)
        np.abs(line, out=line)
    return float(np.median(line, overwrite_input=True))


def _bracket_share(blocks, buf, at, med, lo, hi) -> tuple[int, list]:
    """The rows of at in `blocks` (of |at - med| when med is given) against [lo, hi].

    Returns how many entries are <= hi and, block by block, those in
    [lo, hi]. |at - med| is formed in buf, with the arithmetic of
    `np.abs(at - med)`.
    """
    le = 0
    inside = []
    for i, j in blocks:
        x = at[i:j]
        if med is not None:
            x = np.abs(np.subtract(x, med, out=buf[: j - i]), out=buf[: j - i])
        m_le = x <= hi
        le += np.count_nonzero(m_le)
        inside.append(x[np.logical_and(x >= lo, m_le, out=m_le)])
    return le, inside


def resolve_params(
    D, alpha=None, beta=None, threshold=None
) -> tuple[float, float, float, dict[str, str]]:
    """Resolve (alpha, beta, T): given values are kept, missing ones follow the rules.

    Each rule is a multiple of the noise scale sigma_hat (`estimate_sigma`),
    which is estimated only when a value is missing. For an n x p matrix:
    alpha = (sqrt(n) + sqrt(p)) * sigma_hat, the expected spectral norm of
    an n x p Gaussian noise matrix; beta = BETA_RATIO * alpha / sqrt(m),
    with m the larger dimension; T = DETECTION_SCALE * sigma_hat. A missing
    beta follows the rule alpha even when alpha itself is given; its
    provenance then names that rule alpha. Returns alpha, beta, T and the
    provenance of each value as manifest text, keyed sigma_hat (present only
    when estimated), alpha, beta, threshold. Raises DegenerateInputError
    when a value is missing and sigma_hat is not positive (constant input),
    and ValueError when D has a NaN or Inf entry (`as_array`), even when no
    value is missing, or when a given value breaks `_check_param` (alpha and
    beta finite and > 0, T finite and >= 0); given values are checked before
    sigma_hat is estimated. Rule values are checked by `SolverConfig`.
    """
    given = dict(alpha=alpha, beta=beta, threshold=threshold)
    for name, value in given.items():
        if value is not None:
            _check_param(name, value, positive=name != "threshold")
    provenance = {}
    if None not in given.values():
        as_array(D, "D")   # nothing to estimate, but D is checked all the same
    else:
        sigma = estimate_sigma(D)   # which checks D as as_array does
        if sigma <= 0:
            raise DegenerateInputError(
                "noise scale estimate is not positive, so no rule can derive alpha and beta "
                "or the threshold; supply them explicitly"
            )
        provenance["sigma_hat"] = f"{sigma!r} (rule: {_RULE_TEXT['sigma_hat']})"
        n, p = np.shape(D)
        rule_alpha = (math.sqrt(n) + math.sqrt(p)) * sigma
        rules = dict(
            alpha=rule_alpha,
            beta=BETA_RATIO * rule_alpha / math.sqrt(max(n, p)),
            threshold=DETECTION_SCALE * sigma,
        )
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


class _Shares:
    """The row blocks of a tall n x p sweep, in fixed shares, and the threads that run them.

    Blocks hold about _SWEEP_BYTES each and go, in order, into
    k = min(_MAX_SHARES, blocks) contiguous shares (one share when n is 0),
    one block each plus the blocks past k in shares shrinking linearly. The
    bounds depend on n, p and _SWEEP_BYTES only, and `run` returns each
    share's result in share order, so the arithmetic does not depend on the
    thread count. With `_sweep_threads(shares)` above one, the shares go to
    a pool of that many threads through `Executor.map`; else they run
    inline and no thread starts. Each call on a share gets a block-sized
    buffer of its own. Used as a context manager, which joins the threads
    on exit.
    """

    def __init__(self, n: int, p: int):
        rows = _block_rows(p)
        blocks = [(i, min(i + rows, n)) for i in range(0, n, rows)]
        k = max(1, min(_MAX_SHARES, len(blocks)))
        # share s (from 0) takes one block plus about (k - s) / (k(k+1)/2) of the
        # blocks past k: the shares taken last are short, so that no thread
        # sits idle long at the end of a pass
        extra, total = len(blocks) - k, k * (k + 1) // 2
        bounds = [s - (-extra * (s * (2 * k - s + 1) // 2) // total) for s in range(k + 1)]
        self.shares = [blocks[bounds[s] : bounds[s + 1]] for s in range(k)]
        self.buf_shape = (min(rows, n), p)
        threads = _sweep_threads(k)
        self.pool = ThreadPoolExecutor(threads) if threads > 1 else None

    def run(self, fn, *args) -> list:
        """[fn(blocks, buf, *args) for each share's blocks], buf a fresh block-sized one."""
        def call(blocks):
            return fn(blocks, np.empty(self.buf_shape), *args)

        mapper = map if self.pool is None else self.pool.map
        return list(mapper(call, self.shares))

    def sum(self, fn, *args) -> list:
        """The results of `run(fn, *args)` added term by term, in share order.

        A list term is concatenated; an array term is added into share 0's.
        """
        first, *rest = self.run(fn, *args)
        total = list(first)
        for part in rest:
            for t, term in enumerate(part):
                total[t] += term
        return total

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.pool is not None:
            self.pool.shutdown()


def _block_rows(p: int) -> int:
    """Rows of a row block of width p: about _SWEEP_BYTES, at least one."""
    return max(1, _SWEEP_BYTES // (8 * max(p, 1)))


def _sweep_threads(shares: int) -> int:
    """Threads for a sweep of `shares` shares: one per usable CPU, at most one per
    share, when the BLAS runs one thread per call, else one.

    The BLAS's own setting is read as OpenBLAS, MKL and OpenMP read it at load
    time: the first of _BLAS_THREAD_VARS that is set. Unset, the BLAS threads
    every call over all the cores, and sweep threads beside its threads
    oversubscribe them: at 466,423 x 32 on 2 CPUs two sweep threads took 6.7 s
    against 3.1 s for one.
    """
    if shares == 1:   # nothing to split: no need to read the environment
        return 1
    blas = next((os.environ[v] for v in _BLAS_THREAD_VARS if os.environ.get(v)), "")
    return min(_usable_cpus(), shares) if blas.strip() == "1" else 1


def _gram_share(blocks, buf, dt):
    """Gram matrix and squared sum of the rows of dt in `blocks`, summed block by block.

    Each block is copied into buf first, so that the products see the same
    contiguous rows whatever dt's layout.
    """
    G = np.zeros((dt.shape[1],) * 2)
    rr = 0.0
    for i, j in blocks:
        r = buf[: j - i]
        r[...] = dt[i:j]
        G += r.T @ r
        rr += float(np.square(r).sum())
    return G, rr


def _sweep_share(blocks, buf, dt, Et, E_newt, Vk, W, beta):
    """A sweep's pass over the rows of one share, tall orientation.

    Per block: its rows of X_new = (d - E) V_k W^T, formed in buf and never
    stored, of E_new = soft(d - X_new, beta), the l1 norm of E_new and the
    squared residual d - X_new - E_new, and then, while the block is in
    cache, its term of the next Gram matrix, that of d - E_new. Returns that
    Gram matrix, the l1 sum and the squared sum.
    """
    G = np.zeros((dt.shape[1],) * 2)
    l1 = rr = 0.0
    for i, j in blocks:
        r = np.subtract(dt[i:j], Et[i:j], out=buf[: j - i])
        np.matmul(r @ Vk, W.T, out=r)   # the block's rows of X_new
        np.subtract(dt[i:j], r, out=r)
        l1 += _shrink(r, beta, E_newt[i:j])
        r -= E_newt[i:j]   # the residual d - X_new - E_new
        rr += float(np.vdot(r, r))
        np.subtract(dt[i:j], E_newt[i:j], out=r)
        G += r.T @ r
    return G, l1, rr


def _x_share(blocks, buf, dt, Et, Vk, W):
    """Overwrite the rows of Et in `blocks` with those of X = (d - E) V_k W^T."""
    for i, j in blocks:
        r = np.subtract(dt[i:j], Et[i:j], out=buf[: j - i])
        np.matmul(r @ Vk, W.T, out=Et[i:j])


def _sweep(G, d, E, E_new, alpha: float, beta: float, shares: _Shares):
    """One sweep: X_new = SVT(d - E, alpha), then E_new = soft(d - X_new, beta).

    G is the Gram matrix of d - E in the tall orientation (a wide input is
    swept through its transpose). Returns the objective at (X_new, E_new),
    the SVT factors (V_k, W, shrunk values) that give X_new = (d - E) V_k W^T
    there, and the Gram matrix of d - E_new, which the next sweep takes as
    its G. X_new is never stored: the fused pass of the module docstring
    forms each block's rows of it, whatever the number of blocks, and the
    shares' sums are added in share order. When the Gram route does not
    apply, the exact SVD takes d - E, built in E_new before the pass.
    """
    dt, Et, E_newt = _tall(d, E, E_new)
    factors = _gram_svt(G, alpha)
    if factors is None:
        factors = _svd_factors(np.subtract(dt, Et, out=E_newt), alpha)
    Vk, W, s_thr = factors
    G, l1, rr = shares.sum(_sweep_share, dt, Et, E_newt, Vk, W, beta)
    return 0.5 * rr + alpha * float(s_thr.sum()) + beta * l1, factors, G


def _tall(*arrays) -> list[np.ndarray]:
    """The arrays as they are, or all transposed when the first is wide."""
    wide = arrays[0].shape[0] < arrays[0].shape[1]
    return [a.T if wide else a for a in arrays]


def solve(D, config: SolverConfig, x0=None) -> SolverResult:
    """Alternate SVT and soft-thresholding from E = 0 until convergence.

    E is the whole iterate: each sweep's SVT step reads only D - E, so X is
    kept only as its SVT factors and formed once, over the buffer of the E
    it came from, after the last sweep; solve holds two n x p arrays, E and
    the next E. x0, when given, sets only trace[0],
    as objective(D, x0, 0); the sweeps start from E = 0 whatever it is.
    Convergence: relative objective decrease below config.rel_tolerance.
    A couple of extra sweeps are run after the criterion first fires so the
    returned pair also satisfies the first-order optimality conditions
    tightly; the trace stays non-increasing throughout. Hitting the
    iteration cap is reported via converged=False, not an error. D and x0
    go through `as_array`, so NaN or Inf in either raises ValueError before
    any work. The sweeps may run on one thread per usable CPU (see the
    module docstring), all joined before solve returns or raises; the
    results do not depend on their number.
    """
    d = as_array(D, "D")
    labels = {}
    if isinstance(D, DenseMatrix):
        labels = dict(row_labels=D.row_labels, col_labels=D.col_labels)
    if x0 is not None:
        x0 = as_array(x0, "x0")
        _check_same_shape(d, x0)

    alpha, beta = config.alpha, config.beta
    E, E_new = np.zeros_like(d), np.empty(d.shape)
    settle = 0
    with _Shares(*_tall(d)[0].shape) as shares:
        # the first sweep's Gram matrix, that of d as E = 0; from X = 0 the same pass
        # sums the objective too, so ||X||_* needs no SVD
        G, rr = shares.sum(_gram_share, *_tall(d))
        F = float(0.5 * rr) if x0 is None else objective(d, x0, E, alpha, beta)
        trace = [F]
        for _ in range(config.max_iterations):
            F_new, factors, G = _sweep(G, d, E, E_new, alpha, beta, shares)
            E, E_new = E_new, E
            trace.append(F_new)
            if (F - F_new) / max(F, 1.0) < config.rel_tolerance:
                settle += 1
                # a sweep that gave E back exactly would give back X and E again
                if settle > _POLISH_ITERS or np.array_equal(E, E_new):
                    break
            else:
                settle = 0
            F = F_new
        # X of the last sweep, formed once over the buffer of the E it came from
        X = E_new
        shares.run(_x_share, *_tall(d, X), *factors[:2])

    return SolverResult(
        X_hat=DenseMatrix(X, **labels),
        E_hat=DenseMatrix(E, **labels),
        objective_trace=tuple(trace),
        iterations_used=len(trace) - 1,
        converged=settle > 0,
        rank_of_X=numerical_rank(factors[2]),
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
    d, x, e = as_array(D, "D"), as_array(X, "X"), as_array(E, "E")
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


def _calls(X: np.ndarray, E: np.ndarray, T) -> tuple[np.ndarray, np.ndarray]:
    """The call rule, after checking T: the masks |X| > T (shared calls, from
    the low-rank part) and |E| > T (study-specific calls, from the sparse
    part). `detect`, the SNP report and `lrsd evaluate` all call through it.
    Each mask is built one row block (`_block_rows`) at a time, so that no
    n x p float temporary is made."""
    _check_param("threshold", T)
    masks = np.empty(X.shape, dtype=bool), np.empty(E.shape, dtype=bool)
    rows = _block_rows(X.shape[1])
    for i in range(0, len(X), rows):
        for a, mask in zip((X, E), masks):
            np.greater(np.abs(a[i : i + rows]), T, out=mask[i : i + rows])
    return masks


def _detect(X: np.ndarray, E: np.ndarray, T) -> np.ndarray:
    """The union of the masks of `_calls`, built one row block (`_block_rows`) at
    a time into one bool mask, so that no n x p temporary is made."""
    _check_param("threshold", T)   # also when X has no rows
    mask = np.empty(X.shape, dtype=bool)
    rows = _block_rows(X.shape[1])
    for i in range(0, len(X), rows):
        np.logical_or(*_calls(X[i : i + rows], E[i : i + rows], T), out=mask[i : i + rows])
    return mask


def detect(result: SolverResult, T: float) -> np.ndarray:
    """Boolean mask of entries reported as signal: |X| > T or |E| > T."""
    return _detect(result.X_hat.values, result.E_hat.values, T)
