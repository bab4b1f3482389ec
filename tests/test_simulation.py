"""Tests for the seeded federated simulation harness."""

import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from robfcp.attacks import AttackSpec
from robfcp.calibration import aggregate, federated_quantile
from robfcp.count_estimator import estimate_malicious_count
from robfcp.detection import maliciousness_scores, pairwise_distances, rank_reports
from robfcp.errors import ConfigError, InputError
from robfcp.simulation import (
    ClientProfile,
    SimulationConfig,
    _softmax,
    dirichlet_mixture,
    generate_client_data,
    monte_carlo,
    resolve_workers,
    robust_calibrate,
    run_trial,
    summarize,
)
from robfcp.sketch import ClientReport, uniform_bin_edges


def _config(**overrides):
    base = dict(K=8, k_m=0, n_per_client=300, C=5, H=50, alpha=0.1,
                signal=2.0, n_test=400, trials=1, seed=42)
    base.update(overrides)
    return SimulationConfig(**base)


class TestConfigValidation:
    def test_malicious_strict_minority(self):
        with pytest.raises(ConfigError):
            _config(K=10, k_m=5)
        _config(K=10, k_m=4)  # largest admissible

    def test_unknown_count_needs_four_clients(self):
        with pytest.raises(ConfigError):
            SimulationConfig(K=3, k_m=1, n_per_client=100, C=3, km_known=False)

    def test_scalar_fields_normalize_to_tuples(self):
        cfg = _config(n_per_client=100, signal=1.5)
        assert cfg.n_per_client == (100,) * 8
        assert cfg.signal == (1.5,) * 8

    def test_per_client_lists(self):
        cfg = _config(n_per_client=[100, 200, 300, 400, 500, 600, 700, 800],
                      signal=[1.0] * 8)
        assert cfg.n_per_client[3] == 400
        with pytest.raises(ConfigError):
            _config(n_per_client=[100, 200])
        with pytest.raises(ConfigError):
            _config(signal=[1.0, 2.0])

    def test_id_convention(self):
        cfg = _config(K=8, k_m=3)
        assert cfg.benign_ids == (0, 1, 2, 3, 4)
        assert cfg.malicious_ids == (5, 6, 7)

    def test_rejects_bad_mode(self):
        with pytest.raises(ConfigError):
            _config(mode="analytic")

    def test_rejects_bad_alpha_and_seed(self):
        with pytest.raises(ConfigError):
            _config(alpha=1.0)
        with pytest.raises(ConfigError):
            _config(seed=-1)


class TestDataGeneration:
    def test_dirichlet_mixture_is_row_stochastic(self):
        rng = np.random.default_rng(42)
        m = dirichlet_mixture(6, 10, 0.5, rng)
        assert m.shape == (10, 6)
        np.testing.assert_allclose(m.sum(axis=1), 1.0)
        assert m.min() >= 0.0

    def test_dirichlet_mixture_deterministic(self):
        a = dirichlet_mixture(4, 5, 0.5, np.random.default_rng(7))
        b = dirichlet_mixture(4, 5, 0.5, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_scores_live_on_unit_interval(self):
        profile = ClientProfile(0, np.full(5, 0.2), 2.0, 500)
        for kind in ("lac", "aps"):
            scores = generate_client_data(profile, 5, kind, np.random.default_rng(1))
            assert scores.shape == (500,)
            assert scores.min() >= 0.0 and scores.max() <= 1.0

    def test_signal_sharpens_scores(self):
        """Stronger true-class logit boost drives the true-label score down."""
        profile_weak = ClientProfile(0, np.full(5, 0.2), 0.0, 4000)
        profile_strong = ClientProfile(0, np.full(5, 0.2), 3.0, 4000)
        weak = generate_client_data(profile_weak, 5, "lac", np.random.default_rng(3))
        strong = generate_client_data(profile_strong, 5, "lac", np.random.default_rng(3))
        assert strong.mean() < weak.mean()
        # with no signal the softmax rows are exchangeable: mean ~ 1 - 1/C
        assert weak.mean() == pytest.approx(1.0 - 0.2, abs=0.02)

    def test_aps_uses_randomization(self):
        profile = ClientProfile(0, np.full(4, 0.25), 1.0, 300)
        lac = generate_client_data(profile, 4, "lac", np.random.default_rng(9))
        aps = generate_client_data(profile, 4, "aps", np.random.default_rng(9))
        assert not np.allclose(lac, aps)


def _three_temporary_softmax(logits):
    """The former softmax: shifted copy, exp in place, divided into a new array."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    np.exp(shifted, out=shifted)
    return shifted / shifted.sum(axis=1, keepdims=True)


class TestSoftmax:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(0, 300), c=st.integers(2, 120), scale=st.sampled_from((0.1, 1.0, 30.0)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_in_place_is_bit_identical(self, n, c, scale, seed):
        logits = np.random.default_rng(seed).standard_normal((n, c)) * scale
        expected = _three_temporary_softmax(logits)
        out = _softmax(logits)
        assert out is logits  # normalised in the caller's buffer
        np.testing.assert_array_equal(out, expected)


class TestRunTrial:
    def test_deterministic(self):
        cfg = _config(K=8, k_m=3, attack=AttackSpec("coverage"))
        a = run_trial(cfg, 0)
        b = run_trial(cfg, 0)
        assert a == b

    def test_trials_decorrelate(self):
        cfg = _config()
        a = run_trial(cfg, 0)
        b = run_trial(cfg, 1)
        assert a.naive.marginal_coverage != b.naive.marginal_coverage

    def test_benign_run_keeps_everyone(self):
        report = run_trial(_config(), 0)
        assert report.benign_set == tuple(range(8))
        assert report.k_m_hat == 0
        assert report.detection_exact
        assert report.naive == report.robust
        assert report.q_naive == report.q_robust

    def test_coverage_attack_deflates_naive_threshold(self):
        report = run_trial(_config(K=8, k_m=3, attack=AttackSpec("coverage")), 0)
        assert report.q_naive < report.q_robust
        assert report.detection_exact
        assert report.benign_set == (0, 1, 2, 3, 4)
        assert report.naive.marginal_coverage < report.robust.marginal_coverage

    def test_efficiency_attack_saturates_naive_sets(self):
        report = run_trial(_config(K=8, k_m=3, attack=AttackSpec("efficiency")), 0)
        assert report.q_naive == 1.0
        assert report.naive.average_set_size == pytest.approx(5.0)
        assert report.robust.average_set_size < 5.0

    def test_mimic_attack_is_harmless(self):
        report = run_trial(_config(K=8, k_m=3, attack=AttackSpec("mimic")), 0)
        # copies of honest vectors leave both thresholds essentially intact
        assert abs(report.naive.marginal_coverage - report.robust.marginal_coverage) < 0.05

    def test_unknown_count_recovers_point_mass_attack(self):
        cfg = _config(K=10, k_m=3, attack=AttackSpec("coverage"), km_known=False)
        report = run_trial(cfg, 0)
        assert report.k_m_hat == 3
        assert report.detection_exact

    def test_unknown_count_benign_escape_hatch(self):
        cfg = _config(K=10, k_m=0, km_known=False)
        report = run_trial(cfg, 0)
        assert report.k_m_hat == 0
        assert report.benign_set == tuple(range(10))

    def test_aps_path_runs(self):
        report = run_trial(_config(score_kind="aps"), 0)
        assert 0.0 <= report.robust.marginal_coverage <= 1.0

    def test_certificate_reflects_selected_set(self):
        report = run_trial(_config(K=8, k_m=3, attack=AttackSpec("coverage")), 0)
        assert report.certificate.variant == "normal"
        # all selected clients are truly benign here, so the bounds are the
        # no-contamination form and upper - lower stays finite
        assert report.certificate.upper > report.certificate.lower

    def test_rejects_negative_trial_index(self):
        with pytest.raises(InputError):
            run_trial(_config(), -1)


class TestDirectMode:
    def test_coverage_is_exact_bin_mass(self):
        cfg = _config(K=6, k_m=0, n_per_client=5000, H=10, alpha=0.05,
                      mode="histogram_direct")
        report = run_trial(cfg, 0)
        # uniform law: coverage must be a multiple of 1/H
        assert report.robust.marginal_coverage == pytest.approx(
            round(report.robust.marginal_coverage * 10) / 10)
        assert report.robust.average_set_size == 0.0

    def test_certificate_contains_truth_at_scale(self):
        cfg = _config(K=10, k_m=1, n_per_client=10**6, H=10, alpha=0.01,
                      attack=AttackSpec("coverage"), mode="histogram_direct",
                      trials=1)
        report = run_trial(cfg, 0)
        assert report.certificate.lower <= report.robust.marginal_coverage \
            <= report.certificate.upper
        assert report.certificate.lower > 0.8

    def test_deterministic(self):
        cfg = _config(K=6, k_m=2, n_per_client=2000, H=10,
                      attack=AttackSpec("gaussian"), mode="histogram_direct")
        assert run_trial(cfg, 3) == run_trial(cfg, 3)


SWEEP = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def federations(draw):
    """(reports with ids 0..K-1, k_m): a Dirichlet cluster plus k_m forged vectors."""
    k = draw(st.integers(4, 12))
    k_m = draw(st.integers(0, (k - 1) // 2))
    h = draw(st.integers(3, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    base = rng.dirichlet(np.ones(h))
    vectors = rng.dirichlet(200.0 * base + 0.5, size=k)
    vectors[k - k_m:] = rng.dirichlet(np.full(h, 0.3), size=k_m)
    edges = uniform_bin_edges(h)
    return [ClientReport(i, int(n), v, edges)
            for i, (n, v) in enumerate(zip(rng.integers(50, 500, size=k), vectors))], k_m


def _untied(reports) -> bool:
    """Scores at every k_b the screen can use, and the all-benign test, are far from a tie.

    Row order changes the summation order of the scores in the last bits, so
    only untied inputs are invariant under permutation.  (At k_b = 2 mutual
    nearest neighbours always tie, but no strict-majority screen uses it.)
    """
    d = pairwise_distances(reports)
    for k_b in range(len(reports) // 2 + 1, len(reports) + 1):
        s = np.sort(maliciousness_scores(d, k_b))
        if np.diff(s).min() <= 1e-9 * s[-1] or abs(s[-1] - 2.0 * np.median(s)) <= 1e-9 * s[-1]:
            return False
    return True


def _relabel(report, client_id):
    return ClientReport(client_id, report.n, report.v, report.edges)


class TestRobustCalibrate:
    def test_maps_rows_to_client_ids(self):
        edges = uniform_bin_edges(4)
        honest = np.array([0.4, 0.3, 0.2, 0.1])
        vectors = [honest, honest + [0.01, -0.01, 0, 0], np.array([0.0, 0.0, 0.0, 1.0]),
                   honest + [0, 0, 0.01, -0.01]]
        reports = [ClientReport(cid, 100, v, edges) for cid, v in zip((42, 7, 3, 19), vectors)]
        result = robust_calibrate(reports, 0.1, k_m=1)
        assert result.selected == (7, 19, 42)
        assert result.k_m_hat == 1
        assert result.robust == federated_quantile(aggregate(reports, (7, 19, 42)), 0.1)
        assert result.naive == federated_quantile(aggregate(reports), 0.1)

    @pytest.mark.parametrize("k_m", [-1, 3, 4])
    def test_rejects_k_m_that_keeps_fewer_than_two(self, k_m):
        edges = uniform_bin_edges(2)
        reports = [ClientReport(i, 10, [0.5, 0.5], edges) for i in range(4)]
        with pytest.raises(InputError):
            robust_calibrate(reports, 0.1, k_m=k_m)

    @SWEEP
    @given(fed=federations(), data=st.data())
    def test_k_m_zero_keeps_every_id(self, fed, data):
        reports, _ = fed
        ids = data.draw(st.lists(st.integers(0, 10 ** 6), min_size=len(reports),
                                 max_size=len(reports), unique=True))
        relabelled = [_relabel(r, i) for r, i in zip(reports, ids)]
        result = robust_calibrate(relabelled, 0.2, k_m=0)
        assert result.selected == tuple(sorted(ids))
        assert result.k_m_hat == 0
        assert result.robust == result.naive

    @SWEEP
    @given(fed=federations(), known=st.booleans(), data=st.data())
    def test_permuting_and_relabelling_maps_selection(self, fed, known, data):
        reports, k_m = fed
        assume(_untied(reports))
        k = len(reports)
        order = data.draw(st.permutations(range(k)))
        ids = data.draw(st.lists(st.integers(0, 10 ** 6), min_size=k, max_size=k, unique=True))
        shuffled = [_relabel(reports[row], ids[row]) for row in order]
        given_k_m = k_m if known else None
        base = robust_calibrate(reports, 0.2, given_k_m)
        moved = robust_calibrate(shuffled, 0.2, given_k_m)
        assert moved.selected == tuple(sorted(ids[i] for i in base.selected))
        assert (moved.k_m_hat, moved.naive, moved.robust) == \
            (base.k_m_hat, base.naive, base.robust)

    @SWEEP
    @given(fed=federations())
    def test_agrees_with_rank_reports(self, fed):
        reports, k_m = fed
        k = len(reports)
        if k_m > 0:
            expected = rank_reports(reports, k - k_m).benign_set
            assert robust_calibrate(reports, 0.2, k_m).selected == expected
        k_m_hat = estimate_malicious_count(reports).k_m_hat
        expected = tuple(range(k)) if k_m_hat == 0 else rank_reports(reports, k - k_m_hat).benign_set
        result = robust_calibrate(reports, 0.2)
        assert (result.selected, result.k_m_hat) == (expected, k_m_hat)


class TestMonteCarlo:
    def test_parallel_equals_serial(self):
        cfg = _config(K=6, k_m=2, n_per_client=200, n_test=200, trials=6,
                      attack=AttackSpec("coverage"))
        serial = monte_carlo(cfg, max_workers=1)
        parallel = monte_carlo(cfg, max_workers=4)
        assert serial.trials == parallel.trials
        assert serial.aggregates == parallel.aggregates

    def test_trials_ordered_by_index(self):
        result = monte_carlo(_config(trials=4, n_test=100, n_per_client=100), max_workers=2)
        assert [t.trial_index for t in result.trials] == [0, 1, 2, 3]

    def test_aggregates_match_manual_summary(self):
        result = monte_carlo(_config(trials=3, n_test=150, n_per_client=150))
        covs = [t.robust.marginal_coverage for t in result.trials]
        assert result.aggregates["rob_cov"]["mean"] == pytest.approx(np.mean(covs))
        assert result.aggregates["rob_cov"]["max"] == pytest.approx(np.max(covs))
        assert result.aggregates == summarize(result.trials)

    def test_summarize_rejects_empty(self):
        with pytest.raises(InputError):
            summarize([])


class TestWorkerResolution:
    def test_unset_env(self):
        """No environment setting: a request is used as given, the default caps at 4 cpus."""
        assert resolve_workers(3) == 3
        assert resolve_workers(None) == min(4, os.cpu_count() or 1)

    def test_request_validation(self):
        assert resolve_workers(None) >= 1
        with pytest.raises(InputError):
            resolve_workers(0)
