"""Tests for the closed-form coverage bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from robfcp.calibration import AggregateHistogram
from robfcp.certify import (
    CertificateParams,
    coverage_bounds,
    coverage_bounds_dkw,
    estimator_precision_bound,
    heterogeneity_sigma,
    overestimate_bounds,
    sketch_epsilon,
)
from robfcp.errors import InputError
from robfcp.sketch import uniform_bin_edges


def _gaussian_radius(p):
    """Oracle: H z / (2 sqrt(n_b)) with z = -ndtri of the tail beta / (2 H k_b)."""
    z = -float(ndtri(p.beta / (2 * p.num_bins * p.num_benign)))
    return p.num_bins * z / (2.0 * math.sqrt(p.min_benign_n))


def _upper_quantile(tail):
    """The certificate's normal quantile at 1 - tail, read off the radius at H = k_b = n_b = 1."""
    p = CertificateParams(alpha=0.1, beta=2.0 * tail, num_bins=1, num_benign=1,
                          num_malicious=0, min_benign_n=1, total_malicious_n=0)
    return 2.0 * coverage_bounds(p).p_byz


class TestInvNormCdf:
    """The normal quantile behind the Gaussian radius; the radius only uses tails below 1/2."""

    def test_reference_points(self):
        assert _upper_quantile(0.025) == pytest.approx(1.95996398, abs=1e-8)
        assert _upper_quantile(1.0 - 0.8413447460685429) == pytest.approx(1.0, abs=1e-6)

    def test_dense_grid_against_scipy(self):
        tails = np.linspace(1e-6, 0.5 - 1e-6, 20001)
        errs = [abs(_upper_quantile(float(t)) + ndtri(t)) for t in tails]
        assert max(errs) < 1e-8

    def test_extreme_tails(self):
        for t in (1e-14, 1e-10, 2.5e-9):
            assert _upper_quantile(t) == pytest.approx(-float(ndtri(t)), rel=1e-9)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(InputError):
                _params(beta=bad)


def _params(**overrides):
    base = dict(alpha=0.1, beta=0.05, num_bins=10, num_benign=9, num_malicious=1,
                min_benign_n=10**6, total_malicious_n=10**6, sigma=0.0, epsilon=0.001)
    base.update(overrides)
    return CertificateParams(**base)


class TestCoverageBounds:
    def test_worked_instance(self):
        cert = coverage_bounds(_params())
        assert cert.p_byz == pytest.approx(0.0561020352325473, abs=1e-12)
        assert cert.lower == pytest.approx(0.8429, abs=5e-5)
        assert cert.lower == pytest.approx(0.8428969737763716, abs=1e-12)
        assert cert.upper == pytest.approx(0.957111035151548, abs=1e-12)
        assert not cert.vacuous

    def test_no_attackers_reduction(self):
        """With k_m = N_m = sigma = epsilon = 0 the bound is pure concentration."""
        p = _params(num_malicious=0, total_malicious_n=0, epsilon=0.0)
        cert = coverage_bounds(p)
        radius = _gaussian_radius(p)
        assert cert.p_byz == pytest.approx(radius, rel=1e-12)
        assert cert.lower == pytest.approx(
            0.9 - radius - 1.0 / (p.min_benign_n + p.num_benign), abs=1e-15)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(beta=st.floats(1e-12, 1.0, exclude_max=True), h=st.integers(1, 1000),
           k_b=st.integers(1, 10 ** 4), n_b=st.integers(1, 10 ** 9))
    def test_radius_matches_ndtri(self, beta, h, k_b, n_b):
        """The radius's normal quantile, deep into the tail, against scipy's ndtri."""
        p = CertificateParams(alpha=0.1, beta=beta, num_bins=h, num_benign=k_b,
                              num_malicious=0, min_benign_n=n_b, total_malicious_n=0)
        assert coverage_bounds(p).p_byz == pytest.approx(_gaussian_radius(p), rel=1e-12)

    def test_homogeneous_matches_general_at_sigma_zero(self):
        p = _params()
        general = coverage_bounds(p)
        homo = coverage_bounds(p, homogeneous=True)
        assert homo.variant == "homogeneous"
        assert (homo.lower, homo.upper, homo.p_byz) == (general.lower, general.upper, general.p_byz)

    def test_homogeneous_requires_sigma_zero(self):
        with pytest.raises(InputError):
            coverage_bounds(_params(sigma=0.1), homogeneous=True)

    def test_heterogeneity_widens_bounds(self):
        tight = coverage_bounds(_params(sigma=0.0))
        wide = coverage_bounds(_params(sigma=0.05))
        assert wide.lower < tight.lower
        assert wide.upper > tight.upper

    def test_tau_must_be_below_one(self):
        with pytest.raises(InputError):
            _params(num_malicious=9)
        with pytest.raises(InputError):
            _params(num_malicious=12)

    def test_vacuous_flag(self):
        # tiny samples make the concentration radius blow past the unit interval
        cert = coverage_bounds(_params(min_benign_n=10, total_malicious_n=10))
        assert cert.vacuous
        assert cert.lower < 0.0

    def test_param_validation(self):
        with pytest.raises(InputError):
            _params(alpha=0.0)
        with pytest.raises(InputError):
            _params(beta=1.5)
        with pytest.raises(InputError):
            _params(num_bins=0)
        with pytest.raises(InputError):
            _params(num_benign=0)
        with pytest.raises(InputError):
            _params(min_benign_n=0)
        with pytest.raises(InputError):
            _params(sigma=-0.1)
        with pytest.raises(InputError):
            _params(epsilon=-0.001)


class TestLowerBoundMonotone:
    """More benign samples never lower the certificate; more kept attackers never raise it.

    In ``min_benign_n`` every term of the lower bound falls except the
    resolution term (eps*n_b + 1)/(n_b + k_b), which is non-increasing in n_b
    only while eps*k_b <= 1; the sweep draws eps in that range.  The float
    slack of 1e-12 absorbs rounding in that ratio.
    """

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(k_b=st.integers(1, 200), h=st.integers(1, 200), n_b=st.integers(1, 10 ** 7),
           factor=st.integers(2, 1000), km_share=st.floats(0.0, 0.99),
           n_m=st.integers(0, 10 ** 7), sigma=st.floats(0.0, 0.5),
           eps_share=st.floats(0.0, 1.0), dkw=st.booleans())
    def test_non_decreasing_in_min_benign_n(self, k_b, h, n_b, factor, km_share, n_m, sigma,
                                            eps_share, dkw):
        bounds = coverage_bounds_dkw if dkw else coverage_bounds
        base = dict(alpha=0.1, beta=0.05, num_bins=h, num_benign=k_b,
                    num_malicious=int(km_share * k_b), total_malicious_n=n_m, sigma=sigma,
                    epsilon=eps_share / k_b)
        small = bounds(CertificateParams(min_benign_n=n_b, **base))
        large = bounds(CertificateParams(min_benign_n=n_b * factor, **base))
        assert large.lower >= small.lower - 1e-12

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(k_b=st.integers(2, 200), h=st.integers(1, 200), n_b=st.integers(1, 10 ** 7),
           km=st.data(), n_m=st.integers(0, 10 ** 7), sigma=st.floats(0.0, 0.5),
           eps=st.floats(0.0, 1.0), dkw=st.booleans())
    def test_non_increasing_in_num_malicious(self, k_b, h, n_b, km, n_m, sigma, eps, dkw):
        bounds = coverage_bounds_dkw if dkw else coverage_bounds
        fewer = km.draw(st.integers(0, k_b - 2))
        more = km.draw(st.integers(fewer + 1, k_b - 1))
        base = dict(alpha=0.1, beta=0.05, num_bins=h, num_benign=k_b, min_benign_n=n_b,
                    total_malicious_n=n_m, sigma=sigma, epsilon=eps)
        low_km = bounds(CertificateParams(num_malicious=fewer, **base))
        high_km = bounds(CertificateParams(num_malicious=more, **base))
        assert high_km.lower <= low_km.lower

    def test_not_monotone_in_min_benign_n_when_eps_k_b_exceeds_one(self):
        """With eps * k_b = 100 the resolution term outgrows the shrinking radius."""
        base = dict(alpha=0.1, beta=0.05, num_bins=1, num_benign=100, num_malicious=0,
                    total_malicious_n=0, epsilon=1.0)
        small = coverage_bounds(CertificateParams(min_benign_n=50, **base))
        large = coverage_bounds(CertificateParams(min_benign_n=10 ** 4, **base))
        assert small.lower == pytest.approx(0.314, abs=1e-3)
        assert large.lower == pytest.approx(-0.108, abs=1e-3)


class TestDkwBounds:
    def test_radius_closed_form(self):
        """beta = 2 K_b / e^2 turns the DKW radius into exactly H / sqrt(n_b)."""
        k_b, n_b, h = 1, 4000, 10
        beta = 2.0 * k_b / math.exp(2.0)
        p = CertificateParams(alpha=0.1, beta=beta, num_bins=h, num_benign=k_b,
                              num_malicious=0, min_benign_n=n_b, total_malicious_n=0)
        cert = coverage_bounds_dkw(p)
        assert cert.variant == "dkw"
        assert cert.p_byz == pytest.approx(h / math.sqrt(n_b), abs=1e-12)

    def test_same_assembly_as_gaussian(self):
        p = _params()
        g = coverage_bounds(p)
        d = coverage_bounds_dkw(p)
        # identical epsilon/heterogeneity terms; only the radius differs
        assert d.lower - g.lower == pytest.approx(
            -(d.p_byz - g.p_byz), abs=1e-12)


class TestOverestimateBounds:
    def test_formula_reduction(self):
        """K_b=6 reported as 8: penalty = 1 - 0.75 (1 - radius) = 0.25 + 0.75 radius."""
        p = CertificateParams(alpha=0.1, beta=0.05, num_bins=10, num_benign=6,
                              num_malicious=0, min_benign_n=10**6, total_malicious_n=0)
        radius = _gaussian_radius(p)
        cert = overestimate_bounds(p, k_b_reported=8)
        assert cert.variant == "overestimate"
        assert cert.p_byz == pytest.approx(0.25 + 0.75 * radius, abs=1e-12)
        assert cert.lower == pytest.approx(
            0.9 - cert.p_byz - 1.0 / (10**6 + 6), abs=1e-12)

    def test_requires_actual_overestimate(self):
        p = CertificateParams(alpha=0.1, beta=0.05, num_bins=10, num_benign=6,
                              num_malicious=0, min_benign_n=1000, total_malicious_n=0)
        with pytest.raises(InputError):
            overestimate_bounds(p, k_b_reported=6)
        with pytest.raises(InputError):
            overestimate_bounds(p, k_b_reported=5)

    def test_continuity_toward_no_overestimate(self):
        """As reported -> actual the penalty approaches the plain radius."""
        p = CertificateParams(alpha=0.1, beta=0.05, num_bins=10, num_benign=2000,
                              num_malicious=0, min_benign_n=10**6, total_malicious_n=0)
        cert = overestimate_bounds(p, k_b_reported=2001)
        plain = coverage_bounds(p)
        assert cert.p_byz == pytest.approx(plain.p_byz, abs=1e-3)


class TestPrecisionBound:
    def test_isotropic_worked_example(self):
        bound = estimator_precision_bound(trace_sigma=0.02, sigma_max_ratio=1.0,
                                          d=5.0, num_clients=10, k_b=6, k_m=4,
                                          k_b_tilde=6)
        assert bound == pytest.approx(0.9456, abs=1e-10)

    def test_limit_at_large_separation(self):
        bound = estimator_precision_bound(trace_sigma=0.02, sigma_max_ratio=1.0,
                                          d=1e9, num_clients=10, k_b=6, k_m=4,
                                          k_b_tilde=6)
        assert bound == pytest.approx(1.0, abs=1e-12)

    def test_can_go_negative(self):
        bound = estimator_precision_bound(trace_sigma=1.0, sigma_max_ratio=1.0,
                                          d=0.5, num_clients=10, k_b=6, k_m=4,
                                          k_b_tilde=6)
        assert bound < 0.0

    def test_preconditions(self):
        with pytest.raises(InputError):
            estimator_precision_bound(0.02, 1.0, d=0.0, num_clients=10, k_b=6,
                                      k_m=4, k_b_tilde=6)
        with pytest.raises(InputError):
            estimator_precision_bound(0.02, 1.0, d=5.0, num_clients=10, k_b=6,
                                      k_m=6, k_b_tilde=6)
        with pytest.raises(InputError):
            estimator_precision_bound(0.02, 1.0, d=5.0, num_clients=10, k_b=6,
                                      k_m=4, k_b_tilde=7)
        with pytest.raises(InputError):
            estimator_precision_bound(0.02, 0.5, d=5.0, num_clients=10, k_b=6,
                                      k_m=4, k_b_tilde=6)


class TestSigmaAndEpsilon:
    def test_heterogeneity_sigma_is_max_l1_spread(self):
        vecs = np.array([[0.5, 0.5], [0.4, 0.6], [0.2, 0.8]])
        # farthest pair: rows 0 and 2, l1 distance 0.6
        assert heterogeneity_sigma(vecs) == pytest.approx(0.6)

    def test_single_client_has_no_spread(self):
        assert heterogeneity_sigma(np.array([[0.3, 0.7]])) == 0.0

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(k=st.integers(2, 40), h=st.integers(1, 120), seed=st.integers(0, 2 ** 32 - 1),
           dense=st.booleans())
    def test_heterogeneity_sigma_matches_broadcast_oracle(self, k, h, seed, dense):
        rng = np.random.default_rng(seed)
        vecs = (rng.dirichlet(np.full(h, 0.5), size=k) if dense
                else rng.standard_normal((k, h)) * 10.0 ** rng.integers(-6, 7, size=(k, 1)))
        oracle = float(np.abs(vecs[:, None, :] - vecs[None, :, :]).sum(axis=2).max())
        assert heterogeneity_sigma(vecs) == oracle

    def test_heterogeneity_sigma_rejects_nan(self):
        with pytest.raises(InputError, match="finite"):
            heterogeneity_sigma(np.array([[0.3, 0.7], [np.nan, 0.5]]))

    def test_sketch_epsilon_is_peak_bin_mass(self):
        agg = AggregateHistogram(counts=np.array([10, 30, 60]), total_n=100,
                                 num_clients=2, edges=uniform_bin_edges(3))
        assert sketch_epsilon(agg) == pytest.approx(0.6)
