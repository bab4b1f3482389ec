"""Tests for the Gaussian split-point estimator of the malicious count."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cholesky, solve_triangular
from scipy.stats import multivariate_normal

from robfcp import count_estimator
from robfcp.count_estimator import (
    _looks_all_benign,
    estimate_benign_count,
    estimate_malicious_count,
    objective_T,
)
from robfcp.detection import maliciousness_scores, pairwise_distances
from robfcp.errors import InputError
from robfcp.sketch import sketch_scores, uniform_bin_edges


def _cluster_with_outliers(k_benign, k_malicious, num_bins=10, seed=0):
    """Benign reports from one score law plus point-mass forgeries."""
    rng = np.random.default_rng(seed)
    edges = uniform_bin_edges(num_bins)
    vectors = []
    for _ in range(k_benign):
        scores = rng.beta(2.0, 2.0, size=400)
        vectors.append(sketch_scores(0, scores, edges).v)
    forged = np.zeros(num_bins)
    forged[-1] = 1.0
    for _ in range(k_malicious):
        vectors.append(forged.copy())
    return np.stack(vectors)


# --- oracle: each split's Gaussian fitted and scored directly, log-determinant included ---

def _oracle_prior(x):
    """c = max(tr(M_z0) / H, 1e-8) at the first split z0 = floor(K/2) + 1."""
    head = x[: x.shape[0] // 2 + 1]
    centered = head - head.mean(axis=0)
    return max(float(np.trace(centered.T @ centered)) / x.shape[1], 1e-8)


def _oracle_log_likelihoods(x, mean, cov):
    lower = cholesky(cov, lower=True)
    logdet = 2.0 * float(np.log(np.diag(lower)).sum())
    dev = solve_triangular(lower, (x - mean).T, lower=True)
    return -0.5 * (x.shape[1] * np.log(2.0 * np.pi) + logdet + (dev ** 2).sum(axis=0))


def _oracle_T(z, x, c):
    """Mean log-likelihood in minus out under Sigma_z = (M_z + c I) / z."""
    mean = x[:z].mean(axis=0)
    centered = x[:z] - mean
    cov = (centered.T @ centered + c * np.eye(x.shape[1])) / z
    ll = _oracle_log_likelihoods(x, mean, cov)
    return float(ll[:z].mean() - ll[z:].mean())


def _oracle_curve(x):
    c = _oracle_prior(x)
    return [_oracle_T(z, x, c) for z in range(x.shape[0] // 2 + 1, x.shape[0])]


def _oracle_scan(x, max_iter=10):
    """(k_b_hat, iterations, trace) of the alternating scan, T evaluated directly."""
    k = x.shape[0]
    floor = k // 2 + 1
    distances = pairwise_distances(x)
    k_tilde, seen, iterations = floor, {floor}, 0
    for _ in range(max_iter):
        iterations += 1
        order = np.argsort(maliciousness_scores(distances, k_tilde), kind="stable")
        zs = list(range(floor, k))
        ts = _oracle_curve(x[order])
        k_hat = zs[int(np.argmax(ts))]
        if k_hat in seen:
            break
        seen.add(k_hat)
        k_tilde = k_hat
    return k_hat, iterations, list(zip(zs, ts))


def _federation(k_b, k_m, h, seed, concentration=300.0, kind="point_mass"):
    """A Dirichlet cluster of k_b benign histograms plus k_m outliers, shuffled."""
    rng = np.random.default_rng(seed)
    base = rng.dirichlet(np.ones(h))
    benign = rng.dirichlet(concentration * base + 1e-3, size=k_b)
    if kind == "point_mass":
        forged = np.eye(h)[rng.integers(0, h, size=k_m)]
    elif kind == "other_cluster":
        forged = rng.dirichlet(300.0 * rng.dirichlet(np.ones(h)) + 1e-3, size=k_m)
    else:
        forged = benign[rng.integers(0, k_b, size=k_m)] + rng.normal(0.0, 0.05, size=(k_m, h))
    return np.vstack([benign, forged])[rng.permutation(k_b + k_m)]


@st.composite
def federations(draw):
    """A Dirichlet cluster of benign histograms plus a minority of outliers."""
    k_b = draw(st.integers(3, 24))
    k_m = draw(st.integers(max(0, 4 - k_b), k_b - 1))
    h = draw(st.integers(2, 40))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    concentration = draw(st.sampled_from((30.0, 300.0, 3000.0)))
    kind = draw(st.sampled_from(("point_mass", "other_cluster", "jitter")))
    return _federation(k_b, k_m, h, seed, concentration, kind)


SWEEP = settings(max_examples=60, deadline=None, derandomize=True, database=None)


class TestScanMatchesOracle:
    """The one-pass curve and the scan agree with a direct fit and score of every split."""

    @SWEEP
    @example(x=_federation(80, 20, 100, 1))  # the benchmark's K = H = 100
    @example(x=_federation(120, 30, 20, 2, kind="other_cluster"))  # K and H past the sweep
    @example(x=_federation(24, 6, 200, 3, kind="jitter"))
    @given(x=federations())
    def test_objective(self, x):
        curve = objective_T(x)
        expected = _oracle_curve(x)
        np.testing.assert_allclose(curve, expected, rtol=1e-9)
        assert int(np.argmax(curve)) == int(np.argmax(expected))

    @SWEEP
    @given(x=federations())
    def test_scan(self, x):
        est = estimate_benign_count(x)
        k_hat, iterations, trace = _oracle_scan(x)
        assert (est.k_b_hat, est.iterations) == (k_hat, iterations)
        assert [z for z, _ in est.objective_trace] == [z for z, _ in trace]
        np.testing.assert_allclose([t for _, t in est.objective_trace],
                                   [t for _, t in trace], rtol=1e-9)


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected_by_scan_and_objective(self, bad):
        vectors = _cluster_with_outliers(7, 3, seed=4)
        vectors[8, 2] = bad
        for call in (lambda: estimate_benign_count(vectors),
                     lambda: estimate_malicious_count(vectors),
                     lambda: objective_T(vectors)):
            with pytest.raises(InputError, match="finite"):
                call()

    def test_log_likelihood_rejects_nan_vector(self):
        """A NaN vector that is only scored under the fits, never fitted, is rejected."""
        vectors = np.array([[0.5, 0.5], [0.4, 0.6], [0.45, 0.55], [np.nan, 0.5]])
        with pytest.raises(InputError, match="finite"):
            objective_T(vectors)


class TestGaussianFit:
    """The fit each split makes, Sigma_z = (M_z + c I) / z, seen through T."""

    def test_population_covariance(self):
        """Divisor z, not z - 1: at H = 1 the fit's variance is (M_z + c) / z."""
        x = np.array([0.4, 0.6, 0.5, 0.9])  # z0 = 3: mean 0.5, M_3 = 0.02, so c = 0.02
        var = (0.02 + 0.02) / 3

        def ll(v):
            return -0.5 * (np.log(2.0 * np.pi * var) + (v - 0.5) ** 2 / var)

        expected = np.mean([ll(v) for v in x[:3]]) - ll(x[3])
        np.testing.assert_allclose(objective_T(x[:, None]), [expected], rtol=1e-12)

    def test_ridge_floor_on_identical_vectors(self):
        vectors = np.tile([0.3, 0.7], (6, 1))
        vectors[5] = [0.9, 0.1]
        curve = objective_T(vectors)
        assert np.isfinite(curve).all()
        np.testing.assert_allclose(curve, _oracle_curve(vectors), rtol=1e-9)
        assert int(np.argmax(curve)) == 1  # z = 5 isolates the odd vector

    def test_ridge_scales_with_trace(self):
        """c follows tr(M_z0) / H, so rescaling every vector leaves T unchanged."""
        x = np.random.default_rng(42).dirichlet(np.ones(30), size=40)
        np.testing.assert_allclose(objective_T(7.0 * x), objective_T(x), rtol=1e-9)


class TestLogLikelihood:
    """The oracle's log-density, which gates the one-pass curve, against scipy."""

    def test_standard_normal_at_one_sigma(self):
        ll = _oracle_log_likelihoods(np.array([[1.0]]), np.zeros(1), np.eye(1))
        assert ll[0] == pytest.approx(-0.5 * np.log(2.0 * np.pi) - 0.5)

    def test_matches_scipy(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(30, 5))
        mean, cov = x.mean(axis=0), np.cov(x.T, bias=True) + 0.01 * np.eye(5)
        ref = multivariate_normal(mean=mean, cov=cov)
        np.testing.assert_allclose(_oracle_log_likelihoods(x[:10], mean, cov),
                                   ref.logpdf(x[:10]), rtol=1e-10)


class TestObjectiveT:
    def test_peak_at_true_split(self):
        vectors = _cluster_with_outliers(6, 2, seed=1)
        curve = objective_T(vectors)  # z = 5, 6, 7
        assert curve.shape == (3,)
        assert 5 + int(np.argmax(curve)) == 6

    def test_z_bounds(self):
        """The curve spans z = floor(K/2) + 1 .. K - 1, so it needs K >= 3."""
        assert objective_T(_cluster_with_outliers(2, 1, seed=2)).shape == (1,)
        assert objective_T(_cluster_with_outliers(7, 3, seed=2)).shape == (4,)
        with pytest.raises(InputError):
            objective_T(_cluster_with_outliers(1, 1, seed=2))


class TestEstimateBenignCount:
    def test_recovers_counts(self):
        for k_m in (1, 2, 3, 4):
            vectors = _cluster_with_outliers(10 - k_m, k_m, seed=10 + k_m)
            est = estimate_benign_count(vectors)
            assert est.k_m_hat == k_m, f"k_m={k_m}: got {est.k_m_hat}"
            assert est.k_b_hat == 10 - k_m

    def test_trace_covers_scan_range(self):
        vectors = _cluster_with_outliers(7, 3, seed=5)
        est = estimate_benign_count(vectors)
        assert [z for z, _ in est.objective_trace] == [6, 7, 8, 9]
        assert est.iterations >= 1

    def test_requires_four_clients(self):
        with pytest.raises(InputError):
            estimate_benign_count(_cluster_with_outliers(2, 1, seed=0))

    def test_converged_when_count_repeats(self):
        vectors = _cluster_with_outliers(7, 3, seed=5)
        est = estimate_benign_count(vectors)
        assert est.converged and not est.cycled
        assert est.k_b_hat == 7 and est.iterations == 2

    def test_not_converged_when_max_iter_runs_out(self, monkeypatch):
        vectors = _cluster_with_outliers(7, 3, seed=5)
        monkeypatch.setattr(count_estimator, "MAX_ROUNDS", 1)
        est = estimate_benign_count(vectors)
        assert not est.converged
        assert est.k_b_hat == 7 and est.iterations == 1

    def test_deterministic(self):
        vectors = _cluster_with_outliers(7, 3, seed=8)
        a = estimate_benign_count(vectors)
        b = estimate_benign_count(vectors)
        assert a == b


def force_scan_peaks(monkeypatch, k, peaks):
    """Replace T so that round r of the scan over k clients peaks at z = peaks[r]."""
    floor = k // 2 + 1
    calls = []

    def fake_objective(ordered_vectors):
        calls.append(len(ordered_vectors))
        return (np.arange(floor, k) == peaks[len(calls) - 1]).astype(float)

    monkeypatch.setattr(count_estimator, "objective_T", fake_objective)


class TestScanStopKinds:
    """A fixed point, a return to an earlier different count, and running out of rounds."""

    VECTORS = _cluster_with_outliers(7, 3, seed=5)  # K=10: scan range 6..9, start at 6

    def test_fixed_point_on_the_start(self, monkeypatch):
        force_scan_peaks(monkeypatch, 10, [6])
        est = estimate_benign_count(self.VECTORS)
        assert (est.k_b_hat, est.iterations, est.converged, est.cycled) == (6, 1, True, False)

    def test_fixed_point(self, monkeypatch):
        force_scan_peaks(monkeypatch, 10, [8, 8])
        est = estimate_benign_count(self.VECTORS)
        assert (est.k_b_hat, est.iterations, est.converged, est.cycled) == (8, 2, True, False)

    def test_two_cycle(self, monkeypatch):
        force_scan_peaks(monkeypatch, 10, [8, 6])
        est = estimate_benign_count(self.VECTORS)
        assert (est.k_b_hat, est.iterations, est.converged, est.cycled) == (6, 2, True, True)

    def test_longer_cycle(self, monkeypatch):
        force_scan_peaks(monkeypatch, 10, [7, 8, 7])
        est = estimate_benign_count(self.VECTORS)
        assert (est.k_b_hat, est.iterations, est.converged, est.cycled) == (7, 3, True, True)

    def test_max_iter_is_neither(self, monkeypatch):
        force_scan_peaks(monkeypatch, 10, [7, 8, 9])
        monkeypatch.setattr(count_estimator, "MAX_ROUNDS", 3)
        est = estimate_benign_count(self.VECTORS)
        assert (est.k_b_hat, est.iterations, est.converged, est.cycled) == (9, 3, False, False)


class TestEscapeHatch:
    def test_no_outlier_all_benign(self):
        rng = np.random.default_rng(42)
        edges = uniform_bin_edges(10)
        reports = [sketch_scores(i, rng.beta(2, 2, size=500), edges) for i in range(8)]
        estimate = estimate_malicious_count(reports)
        scan = estimate_benign_count(reports)
        assert estimate.all_benign and estimate.k_m_hat == 0
        assert scan.k_m_hat > 0 and not scan.all_benign
        assert estimate == dataclasses.replace(scan, k_m_hat=0, all_benign=True)

    def test_outlier_defeats_hatch(self):
        vectors = _cluster_with_outliers(7, 3, seed=6)
        estimate = estimate_malicious_count(vectors)
        assert not estimate.all_benign
        assert estimate.k_m_hat == 3
        assert estimate == estimate_benign_count(vectors)

    def test_scores_validation(self):
        with pytest.raises(InputError):
            _looks_all_benign(np.array([]))

    def test_direct_threshold(self):
        assert _looks_all_benign(np.array([1.0, 1.1, 0.9, 2.0]))
        assert not _looks_all_benign(np.array([1.0, 1.1, 0.9, 2.3]))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 59), st.integers(0, 2 ** 32 - 1), st.sampled_from((1e-3, 1.0, 1e6)))
    def test_median_is_numpys(self, k, seed, scale):
        """The hatch's threshold uses np.median's floats, so every decision stays as it was."""
        s = np.random.default_rng(seed).exponential(scale, size=k)
        assert _looks_all_benign(s) == bool(s.max() <= 2.0 * float(np.median(s)))
        s[np.argmax(s)] = 2.0 * float(np.median(s))  # the threshold itself
        assert _looks_all_benign(s) == bool(s.max() <= 2.0 * float(np.median(s)))
