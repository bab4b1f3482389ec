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

The fit at split z is Sigma_z = (M_z + c I) / z, where M_z is the centred
scatter of the z most benign vectors and c = max(rho * tr(M_z0) / H, floor)
is fixed per ordering at the first split z0 = floor(K/2) + 1: shrinkage
toward a scaled identity (Ledoit & Wolf, J. Multivariate Anal. 2004), or c
pseudo-observations of a conjugate prior.  This regularizer is an
implementation choice, not the paper's.  It keeps the fit well-posed when
z <= H leaves M_z singular, as it always is for histogram vectors on the
simplex, and because c does not move with z, each split adds a rank-one term
to M_z + c I: :func:`objective_T` walks all splits of one ordering in one
pass of Sherman-Morrison updates, made of ``np.einsum`` calls without BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from statistics import median

import numpy as np

from .detection import as_vector_matrix, maliciousness_scores, pairwise_distances
from .errors import InputError, _integer

#: Weight rho of the prior c * I against the first split's scatter, per dimension.
PRIOR_RHO = 1.0
#: Smallest prior weight c, reached when the first split's vectors are all equal.
PRIOR_FLOOR = 1e-8
#: Rounds of ranking and split search before the scan gives up unconverged.
MAX_ROUNDS = 10


def _add_row(d, w, z: int) -> float:
    """Add the row with U_z = d and W_z = w[0] to a cluster of z: update w[1:], return beta."""
    p = w[0]
    wd = np.einsum("ij,j->i", w, d)
    s = float(wd[0])
    beta = z / (z + 1.0 + z * s)
    w[1:] -= (beta * wd[1:] + (1.0 - beta * s) / (z + 1))[:, None] * p
    return beta


def objective_T(ordered_vectors) -> np.ndarray:
    """T(z) at every split z = floor(K/2) + 1, ..., K - 1 of one ordering, in one pass.

    ``ordered_vectors`` must already be sorted by ascending maliciousness.
    With P = (M_z + c I)^-1, so that Sigma_z^-1 = z P, and U = X - mu_z, the
    log-determinant and the 2*pi term are the same for every row and cancel
    in T, and the in-cluster quadratic forms average to tr(P M_z) =
    H - c tr P, so

        T(z) = (z * mean_{j >= z} U_j P U_j - (H - c tr P)) / 2.

    The pass starts at z = 1 (mu = x_0, P = I / c) and keeps W = U P for rows
    not yet in the cluster.  Adding row z, with d = U_z, p = W_z, s = d.p,
    gamma = z / (z + 1) and beta = gamma / (1 + gamma s), moves P to
    P - beta p p', U by -d / (z + 1) and W by -g p', where g = beta W d +
    (1 - beta s) / (z + 1); so H - c tr P = c sum_z beta_z |p_z|^2.

    Splits below z0 = floor(K/2) + 1 record nothing, so the warm-up adds rows
    1 .. z0 - 1 updating W of the head rows still out alone (d comes from a
    running mean, so U is not kept), and keeps each p_z and beta_z.
    Since P_z0 = I / c - sum_z beta_z p_z p_z', the tail rows then start at
    W = U / c - ((U P') * beta) P, with P the stacked p_z.  Each reduction is
    one ``np.einsum`` call; with its default ``optimize=False`` it runs
    numpy's own loops, so nothing reaches BLAS.  Time is O(K^2 H); memory is
    O(K H) for U and W plus the O(K^2) (K - z0) x (z0 - 1) contraction.
    """
    x = as_vector_matrix(ordered_vectors)
    k, h = x.shape
    if k < 3:
        raise InputError(f"need at least 3 vectors to scan split points, got {k}")
    first = k // 2 + 1
    mean = x[:first].mean(axis=0)
    head = x[:first] - mean
    c = max(PRIOR_RHO * float((head * head).sum()) / h, PRIOR_FLOOR)
    w = np.empty((k - 1, h))  # row z - 1 ends as p_z, the last row as the final W
    w[:first - 1] = (x[1:first] - x[0]) / c
    betas = np.empty(k - 2)
    mu = x[0].copy()
    for z in range(1, first):
        d = x[z] - mu
        betas[z - 1] = _add_row(d, w[z - 1:first - 1], z)
        mu += d / (z + 1)
    p, tail = w[:first - 1], w[first - 1:]
    u = x[first:] - mean
    tail[:] = u / c - np.einsum("ik,kj->ij", np.einsum("ij,kj->ik", u, p) * betas[:first - 1], p)
    sums = np.empty(k - first)
    for z in range(first, k):
        i = z - first
        sums[i] = np.einsum("ij,ij->", tail[i:], u[i:])
        if z < k - 1:
            betas[z - 1] = _add_row(u[i], tail[i:], z)
            u[i + 1:] -= u[i] / (z + 1)
    fits = np.cumsum(np.einsum("ij,ij->i", w[:-1], w[:-1]) * betas)[first - 2:]
    zs = np.arange(first, k)
    return 0.5 * (zs * sums / (k - zs) - c * fits)


@dataclass(frozen=True)
class CountEstimate:
    """Result of the benign-count scan.

    ``converged`` is True when the scan stopped because a benign count
    repeated, False when :data:`MAX_ROUNDS` ran out first.  ``cycled`` tells the two
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


def estimate_benign_count(reports, p=2) -> CountEstimate:
    """Alternate ranking and split search until the benign count repeats, at most MAX_ROUNDS times.

    The scan range is [floor(K/2) + 1, K - 1], and the first ranking assumes
    its lower end (a strict majority).  Ties in the argmax go to the smallest
    z.  Requires K >= 4 so the range is non-trivial.  Each round calls
    :func:`objective_T` once, on the round's ordering.
    """
    vectors = as_vector_matrix(reports)
    k = vectors.shape[0]
    if k < 4:
        raise InputError(f"count estimation requires at least 4 clients, got {k}")

    floor = k // 2 + 1
    distances = pairwise_distances(vectors, p=p)
    k_tilde = floor
    seen = {k_tilde}
    trace: list[tuple[int, float]] = []
    iterations = 0
    k_hat = k_tilde
    converged = cycled = False
    for _ in range(MAX_ROUNDS):
        iterations += 1
        scores = maliciousness_scores(distances, k_tilde)
        order = np.argsort(scores, kind="stable")
        ts = objective_T(vectors[order])
        trace = list(zip(range(floor, k), ts.tolist()))
        k_hat = floor + int(np.argmax(ts))
        if k_hat in seen:
            converged, cycled = True, k_hat != k_tilde
            break
        seen.add(k_hat)
        k_tilde = k_hat
    return CountEstimate(k_b_hat=int(k_hat), k_m_hat=int(k - k_hat),
                         objective_trace=tuple(trace), iterations=iterations,
                         converged=converged, cycled=cycled)


def _looks_all_benign(scores) -> bool:
    """Escape hatch: no client stands out if max score <= 2 * median score.

    The split-point scan cannot return z = K, so on an attack-free federation
    it would always sacrifice one client.  When every maliciousness score is
    within a factor two of the median there is no outlier to remove and the
    malicious count is declared zero.
    """
    s = np.asarray(scores, dtype=float)
    if s.size == 0:
        raise InputError("need at least one maliciousness score")
    return bool(s.max() <= 2.0 * median(s.tolist()))


def estimate_malicious_count(reports, p=2) -> CountEstimate:
    """Full pipeline: scan for the benign count, then apply the escape hatch.

    When the hatch fires the scan's result comes back with ``k_m_hat=0`` and
    ``all_benign=True``: no client is to be filtered.
    """
    p = _integer("p", p, 1)
    vectors = as_vector_matrix(reports)
    estimate = estimate_benign_count(vectors, p=p)
    scores = maliciousness_scores(pairwise_distances(vectors, p=p), estimate.k_b_hat)
    if _looks_all_benign(scores):
        return replace(estimate, k_m_hat=0, all_benign=True)
    return estimate
