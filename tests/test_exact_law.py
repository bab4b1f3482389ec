"""The exact law of the calibrated threshold in ``histogram_direct`` mode.

With k_m known and a ``coverage`` attack, the screen keeps exactly the k_b
benign clients in every trial of these runs; a run where it does not is
refused, because conditioning on the screen's choice would bias the law.
The kept reports' pooled counts are then Multinomial(N_b, 1/H) with
N_b = k_b n, so the count at or below bin j is Binomial(N_b, (j + 1) / H),
and with the rank r = min(ceil((1 - alpha)(N_b + k_b)), N_b)

    P(bin <= j) = P(Binomial(N_b, (j + 1) / H) >= r).

The naive pool also holds the forgers' k_m n counts, all in bin 0, and k_m
more clients in the rank.  Coverage is exact in this mode, so the
Monte-Carlo mean coverage must lie within 4 standard errors of the law's
mean (a law that is a single point compares exactly), and the threshold's
bin frequencies must pass a chi-square test against the law.
"""

import math
from functools import lru_cache

import numpy as np
import pytest
from scipy.stats import binom, chi2

from robfcp.attacks import AttackSpec
from robfcp.simulation import SimulationConfig, monte_carlo

#: name -> (K, k_m, n, H, seed, trials)
CONFIGS = {
    "K10-n2000-H100": (10, 3, 2000, 100, 12, 400),
    "K10-n200-H100": (10, 3, 200, 100, 13, 400),
    "K8-n2000-H20": (8, 2, 2000, 20, 5, 300),
}
POOLS = ("robust", "naive")


@lru_cache(maxsize=None)
def _run(name):
    k, k_m, n, h, seed, trials = CONFIGS[name]
    config = SimulationConfig(K=k, k_m=k_m, n_per_client=n, C=2, H=h, seed=seed, trials=trials,
                              attack=AttackSpec("coverage"), mode="histogram_direct")
    return config, monte_carlo(config, max_workers=1).trials


def bin_law(benign_n, pool_clients, forged_n, num_bins, alpha):
    """P(threshold bin = j), j < H: Multinomial(benign_n, 1/H) counts plus ``forged_n`` in bin 0."""
    total = benign_n + forged_n
    rank = min(math.ceil((1.0 - alpha) * (total + pool_clients) - 1e-9), total)
    at_most = binom.sf(rank - forged_n - 1, benign_n, np.arange(1, num_bins + 1) / num_bins)
    at_most[-1] = 1.0
    return np.diff(at_most, prepend=0.0)


def chi_square_p(observed, expected):
    """Chi-square p-value, adjacent bins pooled until each group expects at least 5."""
    groups, o, e = [], 0, 0.0
    for oj, ej in zip(observed, expected):
        o, e = o + oj, e + ej
        if e >= 5.0:
            groups.append((o, e))
            o, e = 0, 0.0
    if not groups:
        return 1.0
    groups[-1] = (groups[-1][0] + o, groups[-1][1] + e)
    stat = sum((oj - ej) ** 2 / ej for oj, ej in groups)
    return float(chi2.sf(stat, len(groups) - 1)) if len(groups) > 1 else 1.0


def _law_and_draws(name, pool):
    """The exact bin law, the observed bins and coverages, and each bin's coverage."""
    config, trials = _run(name)
    assert all(t.detection_exact for t in trials), (
        "the exact law holds only where the screen keeps exactly the benign clients")
    n, h = config.n_per_client[0], config.H
    k_b = config.K - config.k_m
    if pool == "robust":
        law = bin_law(k_b * n, k_b, 0, h, config.alpha)
        q = [t.q_robust for t in trials]
        coverage = [t.robust.marginal_coverage for t in trials]
    else:
        law = bin_law(k_b * n, config.K, config.k_m * n, h, config.alpha)
        q = [t.q_naive for t in trials]
        coverage = [t.naive.marginal_coverage for t in trials]
    bins = np.rint(np.array(q) * h).astype(int) - 1
    cum = np.cumsum(np.full(h, 1.0 / h))
    assert coverage == cum[bins].tolist()  # direct-mode coverage is the law's CDF at the bin
    return law, bins, np.array(coverage), cum


@pytest.mark.parametrize("pool", POOLS)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_mean_coverage_matches_the_exact_law(name, pool):
    law, bins, coverage, cum = _law_and_draws(name, pool)
    mean = float(law @ cum)
    sd = math.sqrt(float(law @ (cum - mean) ** 2))
    if sd == 0.0:
        assert (bins == int(np.argmax(law))).all()
    else:
        z = (coverage.mean() - mean) / (sd / math.sqrt(coverage.size))
        assert abs(z) <= 4.0, f"mean coverage {coverage.mean()} vs exact {mean}: z = {z:.2f}"


@pytest.mark.parametrize("pool", POOLS)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_bin_frequencies_pass_chi_square(name, pool):
    law, bins, _, _ = _law_and_draws(name, pool)
    observed = np.bincount(bins, minlength=law.size)
    assert chi_square_p(observed, law * bins.size) > 1e-3
