"""Estimating how many clients are malicious.

The server rarely knows the malicious count.  This module estimates it by
ordering clients from most to least benign-looking (via the nearest-neighbour
maliciousness score) and scanning for the split point z that best separates a
Gaussian cluster of benign vectors from the rest:

    T(z) = mean log-likelihood of the z most benign vectors under a Gaussian
           fitted to them, minus the mean log-likelihood of the remaining
           vectors under that same fit.

A forged vector far from the cluster makes T spike exactly when the split
isolates it, so argmax_z T(z) recovers the benign count.  The ranking itself
depends on the assumed benign count, so ranking and split point are iterated
to a fixed point.  The scan is restricted to z > K/2 (the usual breakdown
assumption that benign clients are the majority).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import cholesky, solve_triangular
from scipy.linalg.blas import dsyrk

from .detection import as_vector_matrix, maliciousness_scores, pairwise_distances
from .errors import InputError

_LOG_2PI = float(np.log(2.0 * np.pi))

#: Ridge floor and relative scale used to regularize sample covariances.
RIDGE_FLOOR = 1e-8
RIDGE_SCALE = 1e-6


@dataclass(frozen=True, eq=False)
class GaussianModel:
    """Mean and ridge-regularized covariance fitted to a set of vectors."""

    mean: np.ndarray
    covariance: np.ndarray
    ridge: float


def gaussian_fit(vectors) -> GaussianModel:
    """Fit mean and covariance (divisor z, not z-1) with a ridge on the diagonal.

    The ridge max(1e-8, 1e-6 * trace / H) keeps the fit well-posed even when
    z <= H leaves the sample covariance rank-deficient, as it always is for
    histogram vectors living on the simplex.

    The Gram matrix comes from SciPy's BLAS, the library whose LAPACK factors
    the covariance in :func:`_log_likelihoods`.  numpy's wheel bundles a
    second OpenBLAS with its own thread pool; mixing the two in one fit lets
    their spinning threads starve each other.  ``dsyrk`` fills the lower
    triangle (numpy's ``centered.T @ centered`` dispatches to syrk too).
    SciPy's wrapper zero-fills the strict upper triangle, so adding the
    transpose mirrors it, and copying the diagonal back undoes its doubling:
    the covariance is exactly symmetric.
    """
    x = as_vector_matrix(vectors)
    z, h = x.shape
    if z < 2:
        raise InputError(f"need at least 2 vectors to fit a Gaussian, got {z}")
    mean = x.mean(axis=0)
    centered = x - mean
    gram = dsyrk(1.0, centered.T, lower=1)
    cov = gram + gram.T
    cov.flat[:: h + 1] = gram.flat[:: h + 1]
    cov /= z
    ridge = max(RIDGE_FLOOR, RIDGE_SCALE * float(np.trace(cov)) / h)
    cov.flat[:: h + 1] += ridge
    return GaussianModel(mean=mean, covariance=cov, ridge=ridge)


def _log_likelihoods(vectors: np.ndarray, model: GaussianModel) -> np.ndarray:
    """Gaussian log-density of each row, via one Cholesky factorization.

    Callers pass vectors that :func:`as_vector_matrix` has checked, so
    LAPACK's own finiteness scans are skipped.
    """
    lower = cholesky(model.covariance, lower=True, check_finite=False)
    logdet = 2.0 * float(np.log(np.diag(lower)).sum())
    dev = solve_triangular(lower, (vectors - model.mean).T, lower=True, check_finite=False)
    quad = (dev ** 2).sum(axis=0)
    h = model.mean.size
    return -0.5 * (h * _LOG_2PI + logdet + quad)


def objective_T(z: int, ordered_vectors) -> float:
    """Split objective at z: in-cluster mean log-likelihood minus out-of-cluster mean.

    ``ordered_vectors`` must already be sorted by ascending maliciousness.
    """
    x = as_vector_matrix(ordered_vectors)
    k = x.shape[0]
    if not 2 <= z <= k - 1:
        raise InputError(f"split point z must lie in [2, {k - 1}], got {z}")
    model = gaussian_fit(x[:z])
    ll = _log_likelihoods(x, model)
    return float(ll[:z].mean() - ll[z:].mean())


@dataclass(frozen=True)
class CountEstimate:
    """Result of the benign-count scan.

    ``converged`` is True when the scan stopped because a benign count
    repeated, False when ``max_iter`` ran out first.  ``cycled`` tells the two
    kinds of repeat apart: False for a fixed point (the scan returned the
    count it ranked with), True for a return to an earlier, different count.
    In a cycle ranking and split point never agree, and ``k_b_hat`` is the
    count the scan returned to.  ``all_benign`` is True when the escape hatch
    of :func:`estimate_malicious_count` fired: ``k_m_hat`` is then 0, while
    ``k_b_hat`` and the trace stay the scan's.
    """

    k_b_hat: int
    k_m_hat: int
    objective_trace: tuple[tuple[int, float], ...]
    iterations: int
    converged: bool
    cycled: bool
    all_benign: bool = False


def estimate_benign_count(reports, p=2, k_b_init: int | None = None,
                          max_iter: int = 10) -> CountEstimate:
    """Alternate ranking and split-point search until the benign count repeats.

    The scan range is [floor(K/2) + 1, K - 1]; the default starting point is
    its lower end (a strict majority).  Ties in the argmax go to the smallest
    z.  Requires K >= 4 so the range is non-trivial.  The vectors' finiteness
    is checked once here, so no fit meets a NaN.
    """
    vectors = as_vector_matrix(reports)
    k = vectors.shape[0]
    if k < 4:
        raise InputError(f"count estimation requires at least 4 clients, got {k}")
    floor = k // 2 + 1
    if k_b_init is None:
        k_b_init = floor
    if not floor <= k_b_init <= k:
        raise InputError(f"k_b_init must lie in [{floor}, {k}], got {k_b_init}")
    if max_iter < 1:
        raise InputError(f"max_iter must be >= 1, got {max_iter}")

    distances = pairwise_distances(vectors, p=p)
    k_tilde = int(k_b_init)
    seen = {k_tilde}
    trace: list[tuple[int, float]] = []
    iterations = 0
    k_hat = k_tilde
    converged = cycled = False
    for _ in range(max_iter):
        iterations += 1
        scores = maliciousness_scores(distances, k_tilde)
        order = np.argsort(scores, kind="stable")
        ordered = vectors[order]
        zs = list(range(floor, k))
        ts = [objective_T(z, ordered) for z in zs]
        trace = list(zip(zs, ts))
        k_hat = zs[int(np.argmax(ts))]
        if k_hat in seen:
            converged, cycled = True, k_hat != k_tilde
            break
        seen.add(k_hat)
        k_tilde = k_hat
    return CountEstimate(k_b_hat=int(k_hat), k_m_hat=int(k - k_hat),
                         objective_trace=tuple(trace), iterations=iterations,
                         converged=converged, cycled=cycled)


def looks_all_benign(scores) -> bool:
    """Escape hatch: no client stands out if max score <= 2 * median score.

    The split-point scan cannot return z = K, so on an attack-free federation
    it would always sacrifice one client.  When every maliciousness score is
    within a factor two of the median there is no outlier to remove and the
    malicious count is declared zero.
    """
    s = np.asarray(scores, dtype=float)
    if s.size == 0:
        raise InputError("need at least one maliciousness score")
    return bool(s.max() <= 2.0 * float(np.median(s)))


def estimate_malicious_count(reports, p=2, k_b_init: int | None = None,
                             max_iter: int = 10) -> CountEstimate:
    """Full pipeline: scan for the benign count, then apply the escape hatch.

    When the hatch fires the scan's result comes back with ``k_m_hat=0`` and
    ``all_benign=True``: no client is to be filtered.
    """
    vectors = as_vector_matrix(reports)
    estimate = estimate_benign_count(vectors, p=p, k_b_init=k_b_init, max_iter=max_iter)
    scores = maliciousness_scores(pairwise_distances(vectors, p=p), estimate.k_b_hat)
    if looks_all_benign(scores):
        return replace(estimate, k_m_hat=0, all_benign=True)
    return estimate
