"""Tests for the Gaussian split-point estimator of the malicious count."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cholesky, solve_triangular
from scipy.stats import multivariate_normal

from robfcp import count_estimator
from robfcp.count_estimator import (
    GaussianModel,
    _log_likelihoods,
    estimate_benign_count,
    estimate_malicious_count,
    gaussian_fit,
    looks_all_benign,
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


# --- oracle: the scan with numpy's ``@`` Gram matrix and ``+ ridge * np.eye`` ---

def _oracle_fit(x):
    z, h = x.shape
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / z
    ridge = max(1e-8, 1e-6 * float(np.trace(cov)) / h)
    return mean, cov + ridge * np.eye(h)


def _oracle_T(z, x):
    mean, cov = _oracle_fit(x[:z])
    lower = cholesky(cov, lower=True)
    logdet = 2.0 * float(np.log(np.diag(lower)).sum())
    dev = solve_triangular(lower, (x - mean).T, lower=True)
    ll = -0.5 * (x.shape[1] * np.log(2.0 * np.pi) + logdet + (dev ** 2).sum(axis=0))
    return float(ll[:z].mean() - ll[z:].mean())


def _oracle_scan(x, max_iter=10):
    """(k_b_hat, iterations, trace) of the original alternating scan."""
    k = x.shape[0]
    floor = k // 2 + 1
    distances = pairwise_distances(x)
    k_tilde, seen, iterations = floor, {floor}, 0
    for _ in range(max_iter):
        iterations += 1
        order = np.argsort(maliciousness_scores(distances, k_tilde), kind="stable")
        zs = list(range(floor, k))
        ts = [_oracle_T(z, x[order]) for z in zs]
        k_hat = zs[int(np.argmax(ts))]
        if k_hat in seen:
            break
        seen.add(k_hat)
        k_tilde = k_hat
    return k_hat, iterations, list(zip(zs, ts))


@st.composite
def federations(draw):
    """A Dirichlet cluster of benign histograms plus a minority of outliers."""
    k_b = draw(st.integers(3, 24))
    k_m = draw(st.integers(max(0, 4 - k_b), k_b - 1))
    h = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    base = rng.dirichlet(np.ones(h))
    benign = rng.dirichlet(draw(st.sampled_from((30.0, 300.0, 3000.0))) * base + 1e-3, size=k_b)
    kind = draw(st.sampled_from(("point_mass", "other_cluster", "jitter")))
    if kind == "point_mass":
        forged = np.eye(h)[rng.integers(0, h, size=k_m)]
    elif kind == "other_cluster":
        forged = rng.dirichlet(300.0 * rng.dirichlet(np.ones(h)) + 1e-3, size=k_m)
    else:
        forged = benign[rng.integers(0, k_b, size=k_m)] + rng.normal(0.0, 0.05, size=(k_m, h))
    return np.vstack([benign, forged])[rng.permutation(k_b + k_m)]


SWEEP = settings(max_examples=60, deadline=None, derandomize=True, database=None)


class TestScanMatchesOracle:
    """The fit, T(z) and the scan agree with the original numpy-only formulas."""

    @SWEEP
    @given(x=federations())
    def test_covariance(self, x):
        for z in (2, x.shape[0] // 2 + 1, x.shape[0]):
            _, expected = _oracle_fit(x[:z])
            cov = gaussian_fit(x[:z]).covariance
            np.testing.assert_allclose(cov, expected, rtol=1e-12,
                                       atol=1e-12 * np.abs(expected).max())
            assert np.array_equal(cov, cov.T)

    @SWEEP
    @given(x=federations())
    def test_objective(self, x):
        for z in range(2, x.shape[0]):
            assert objective_T(z, x) == pytest.approx(_oracle_T(z, x), rel=1e-9)

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
                     lambda: objective_T(6, vectors),
                     lambda: gaussian_fit(vectors[6:])):
            with pytest.raises(InputError, match="finite"):
                call()

    def test_log_likelihood_rejects_nan_vector(self):
        """A NaN vector that is only scored under the fit, never fitted, is rejected."""
        vectors = np.array([[0.5, 0.5], [0.4, 0.6], [np.nan, 0.5]])
        with pytest.raises(InputError, match="finite"):
            objective_T(2, vectors)


class TestGaussianFit:
    def test_population_covariance(self):
        """Divisor is z, not z - 1."""
        model = gaussian_fit(np.array([[0.4], [0.6]]))
        assert model.mean[0] == pytest.approx(0.5)
        assert model.covariance[0, 0] == pytest.approx(0.01, rel=1e-5)

    def test_ridge_floor_on_identical_vectors(self):
        model = gaussian_fit(np.tile([0.3, 0.7], (4, 1)))
        np.testing.assert_allclose(np.diag(model.covariance), 1e-8)
        assert np.isfinite(_log_likelihoods(np.array([[0.3, 0.7]]), model)).all()

    def test_ridge_scales_with_trace(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(size=(50, 4))
        model = gaussian_fit(x)
        raw = x - x.mean(axis=0)
        trace = float(np.trace(raw.T @ raw / 50))
        assert model.ridge == pytest.approx(max(1e-8, 1e-6 * trace / 4))

    @pytest.mark.parametrize("z,h", [(2, 3), (40, 120), (80, 100), (99, 100)])
    def test_covariance_exactly_symmetric(self, z, h):
        x = np.random.default_rng(z * h).dirichlet(np.ones(h), size=z)
        cov = gaussian_fit(x).covariance
        assert np.array_equal(cov, cov.T)

    def test_needs_two_vectors(self):
        with pytest.raises(InputError):
            gaussian_fit(np.array([[0.5, 0.5]]))


class TestLogLikelihood:
    def test_standard_normal_at_one_sigma(self):
        model = GaussianModel(mean=np.zeros(1), covariance=np.eye(1), ridge=0.0)
        assert _log_likelihoods(np.array([[1.0]]), model)[0] == pytest.approx(
            -0.5 * np.log(2.0 * np.pi) - 0.5)

    def test_matches_scipy(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(30, 5))
        model = gaussian_fit(x)
        ref = multivariate_normal(mean=model.mean, cov=model.covariance)
        np.testing.assert_allclose(_log_likelihoods(x[:10], model), ref.logpdf(x[:10]),
                                   rtol=1e-10)


class TestObjectiveT:
    def test_peak_at_true_split(self):
        vectors = _cluster_with_outliers(6, 2, seed=1)
        values = {z: objective_T(z, vectors) for z in range(2, 8)}
        assert max(values, key=values.get) == 6

    def test_z_bounds(self):
        vectors = _cluster_with_outliers(4, 2, seed=2)
        with pytest.raises(InputError):
            objective_T(1, vectors)
        with pytest.raises(InputError):
            objective_T(6, vectors)


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

    def test_k_b_init_bounds(self):
        vectors = _cluster_with_outliers(6, 2, seed=3)
        with pytest.raises(InputError):
            estimate_benign_count(vectors, k_b_init=3)  # below strict majority
        with pytest.raises(InputError):
            estimate_benign_count(vectors, k_b_init=9)

    def test_converged_when_count_repeats(self):
        vectors = _cluster_with_outliers(7, 3, seed=5)
        est = estimate_benign_count(vectors)
        assert est.converged and not est.cycled
        assert est.k_b_hat == 7 and est.iterations == 2

    def test_not_converged_when_max_iter_runs_out(self):
        vectors = _cluster_with_outliers(7, 3, seed=5)
        est = estimate_benign_count(vectors, max_iter=1)
        assert not est.converged
        assert est.k_b_hat == 7 and est.iterations == 1

    def test_deterministic(self):
        vectors = _cluster_with_outliers(7, 3, seed=8)
        a = estimate_benign_count(vectors)
        b = estimate_benign_count(vectors)
        assert a == b


def force_scan_peaks(monkeypatch, k, peaks):
    """Replace T so that round r of the scan over k clients peaks at z = peaks[r]."""
    per_round = k - (k // 2 + 1)
    calls = []

    def fake_objective(z, ordered_vectors):
        calls.append(z)
        return 1.0 if z == peaks[(len(calls) - 1) // per_round] else 0.0

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
        est = estimate_benign_count(self.VECTORS, max_iter=3)
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
            looks_all_benign(np.array([]))

    def test_direct_threshold(self):
        assert looks_all_benign(np.array([1.0, 1.1, 0.9, 2.0]))
        assert not looks_all_benign(np.array([1.0, 1.1, 0.9, 2.3]))
