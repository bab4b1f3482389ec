"""Closed-form coverage certificates for the filtered calibration pipeline.

Even after screening, up to ``k_m`` forged reports may survive among the
``k_b`` selected clients.  The bounds here quantify the worst case: with
probability at least 1 - beta over the benign clients' sampling, the achieved
marginal coverage lies in [lower, upper], where the interval widens with

* a concentration radius on the empirical bin masses (Gaussian-tail by
  default, a DKW variant for comparison),
* the surviving adversarial sample weight (through tau = k_m / k_b and the
  total malicious sample count),
* heterogeneity across benign score distributions (sigma, the largest
  l1 gap between expected characterization vectors), and
* the sketch's rank resolution (epsilon, the largest single-bin mass).

Bounds are reported unclipped; a certificate whose interval escapes [0, 1]
is flagged vacuous rather than silently truncated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

from .calibration import AggregateHistogram
from .detection import _pairwise, as_vector_matrix
from .errors import InputError


@dataclass(frozen=True)
class CertificateParams:
    """Inputs to the coverage bounds.

    ``num_benign``/``num_malicious`` describe the *selected* set: how many
    clients were kept and how many of those may be forged.  ``min_benign_n``
    is the smallest per-client sample count among the kept benign clients;
    ``total_malicious_n`` the combined (trusted) sample count of surviving
    forged reports.
    """

    alpha: float
    beta: float
    num_bins: int
    num_benign: int
    num_malicious: int
    min_benign_n: int
    total_malicious_n: int
    sigma: float = 0.0
    epsilon: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise InputError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0.0 < self.beta < 1.0:
            raise InputError(f"beta must lie in (0, 1), got {self.beta}")
        if self.num_bins < 1:
            raise InputError(f"num_bins must be >= 1, got {self.num_bins}")
        if self.num_benign < 1:
            raise InputError(f"num_benign must be >= 1, got {self.num_benign}")
        if self.num_malicious < 0:
            raise InputError(f"num_malicious must be >= 0, got {self.num_malicious}")
        if self.num_malicious >= self.num_benign:
            raise InputError(
                f"need num_malicious < num_benign, got {self.num_malicious} >= {self.num_benign}")
        if self.min_benign_n < 1:
            raise InputError(f"min_benign_n must be >= 1, got {self.min_benign_n}")
        if self.total_malicious_n < 0:
            raise InputError(f"total_malicious_n must be >= 0, got {self.total_malicious_n}")
        if self.sigma < 0.0:
            raise InputError(f"sigma must be >= 0, got {self.sigma}")
        if self.epsilon < 0.0:
            raise InputError(f"epsilon must be >= 0, got {self.epsilon}")

    @property
    def tau(self) -> float:
        """Surviving contamination ratio among selected clients."""
        return self.num_malicious / self.num_benign


@dataclass(frozen=True)
class CoverageCertificate:
    """Two-sided coverage interval with its adversarial penalty term."""

    lower: float
    upper: float
    p_byz: float
    variant: str

    @property
    def vacuous(self) -> bool:
        return self.lower < 0.0 or self.upper > 1.0


def _gaussian_radius(params: CertificateParams) -> float:
    """Simultaneous concentration radius on all bins of all benign clients.

    z is the normal quantile of the tail beta / (2 H k_b), never rounded through 1 - p.
    """
    h, k_b = params.num_bins, params.num_benign
    z = -NormalDist().inv_cdf(params.beta / (2.0 * h * k_b))
    return h * z / (2.0 * math.sqrt(params.min_benign_n))


def _dkw_radius(params: CertificateParams) -> float:
    h, k_b = params.num_bins, params.num_benign
    return h * math.sqrt(math.log(2.0 * k_b / params.beta) / (2.0 * params.min_benign_n))


def _assemble(params: CertificateParams, radius: float, variant: str) -> CoverageCertificate:
    """The coverage interval around 1 - alpha for a given concentration radius.

    The resolution term (eps * n_b + 1) / (n_b + k_b) rises toward eps with n_b,
    so for eps * k_b > 1 the lower bound is not monotone in ``min_benign_n``
    (alpha 0.1, beta 0.05, H=1, eps=1, k_b=100: 0.314 at n_b=50, -0.108 at 10^4).
    """
    n_b, k_b = params.min_benign_n, params.num_benign
    tau = params.tau
    p_byz = radius * (1.0 + (params.total_malicious_n / n_b) * (2.0 / (1.0 - tau)))
    hetero = params.total_malicious_n * params.sigma / (n_b * (1.0 - tau))
    eps = params.epsilon
    lower = (1.0 - params.alpha) - p_byz - hetero - (eps * n_b + 1.0) / (n_b + k_b)
    upper = ((1.0 - params.alpha) + p_byz + hetero
             + (eps * n_b + (eps + 1.0) * k_b) / (n_b + k_b))
    return CoverageCertificate(lower=lower, upper=upper, p_byz=p_byz, variant=variant)


def coverage_bounds(params: CertificateParams, homogeneous: bool = False) -> CoverageCertificate:
    """Gaussian-tail coverage interval for the filtered pipeline.

    With ``homogeneous=True`` all benign clients are assumed to share one
    score distribution: sigma must be 0, and the interval is the general one
    at sigma = 0, labelled ``"homogeneous"``.
    """
    if homogeneous and params.sigma != 0.0:
        raise InputError("the homogeneous variant requires sigma = 0")
    variant = "homogeneous" if homogeneous else "normal"
    return _assemble(params, _gaussian_radius(params), variant)


def coverage_bounds_dkw(params: CertificateParams) -> CoverageCertificate:
    """Same interval with a distribution-free DKW concentration radius."""
    return _assemble(params, _dkw_radius(params), "dkw")


def overestimate_bounds(params: CertificateParams, k_b_reported: int) -> CoverageCertificate:
    """Interval for a screen that kept too few clients.

    ``params.num_benign`` is the number actually kept (all benign, equal
    sample sizes assumed); ``k_b_reported`` is the larger true benign count.
    Discarding benign mass costs a symmetric penalty that shrinks back to the
    concentration radius as the kept fraction approaches one.
    """
    if int(k_b_reported) != k_b_reported or k_b_reported <= params.num_benign:
        raise InputError(
            f"k_b_reported must be an integer > num_benign={params.num_benign}, got {k_b_reported}")
    radius = _gaussian_radius(params)
    penalty = 1.0 - (params.num_benign / k_b_reported) * (1.0 - radius)
    n_b, k_b = params.min_benign_n, params.num_benign
    eps = params.epsilon
    lower = (1.0 - params.alpha) - (eps * n_b + 1.0) / (n_b + k_b) - penalty
    upper = (1.0 - params.alpha) + eps + k_b / (n_b + k_b) + penalty
    return CoverageCertificate(lower=lower, upper=upper, p_byz=penalty, variant="overestimate")


def estimator_precision_bound(trace_sigma: float, sigma_max_ratio: float, d: float,
                              num_clients: int, k_b: int, k_m: int, k_b_tilde: int) -> float:
    """Lower bound on the probability that the count scan is exactly right.

    ``trace_sigma`` is the trace of the benign vectors' covariance,
    ``sigma_max_ratio`` the condition number of its inverse square root
    (1 for isotropic noise), and ``d`` the smallest distance from a forged
    vector to the benign mean.  Requires k_m < k_b_tilde <= k_b.  The value
    is returned unclipped; anything <= 0 is vacuous.
    """
    if trace_sigma < 0.0:
        raise InputError(f"trace_sigma must be >= 0, got {trace_sigma}")
    if sigma_max_ratio < 1.0:
        raise InputError(f"sigma_max_ratio must be >= 1, got {sigma_max_ratio}")
    if not d > 0.0:
        raise InputError(f"separation d must be positive, got {d}")
    if not (0 <= k_m < k_b_tilde <= k_b <= num_clients):
        raise InputError(
            f"need 0 <= k_m < k_b_tilde <= k_b <= num_clients, got "
            f"k_m={k_m}, k_b_tilde={k_b_tilde}, k_b={k_b}, num_clients={num_clients}")
    ranking_term = ((3.0 * k_b_tilde - k_m - 2.0) ** 2 * trace_sigma
                    / ((k_b_tilde - k_m) ** 2 * d * d))
    split_term = (2.0 * (num_clients + k_b) * trace_sigma * sigma_max_ratio ** 2) / (d * d)
    return 1.0 - ranking_term - split_term


def heterogeneity_sigma(expected_vectors) -> float:
    """Largest pairwise l1 distance between expected characterization vectors."""
    x = as_vector_matrix(expected_vectors)
    if x.shape[0] == 1:
        return 0.0
    return float(_pairwise(x, 1).max())


def sketch_epsilon(agg: AggregateHistogram) -> float:
    """Largest single-bin mass of an aggregate: the rank resolution of the sketch."""
    if agg.total_n < 1:
        raise InputError("sketch_epsilon requires a non-empty aggregate")
    return float(agg.counts.max() / agg.total_n)
