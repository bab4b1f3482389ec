"""Tests for the seeded federated simulation harness."""

import ast
import math
import multiprocessing
import os
import subprocess
import sys
import types
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from robfcp import simulation, sketch
from robfcp.attacks import ATTACK_KINDS, OWN_REPORT_KINDS, AttackSpec
from robfcp.calibration import aggregate, federated_quantile
from robfcp.certify import CertificateParams, coverage_bounds, heterogeneity_sigma
from robfcp.count_estimator import estimate_malicious_count
from robfcp.detection import maliciousness_scores, pairwise_distances, rank_reports
from robfcp.errors import ConfigError, InputError
from robfcp.scores import _score_batch, _set_counts
from robfcp.simulation import (
    ClientProfile,
    SimulationConfig,
    _softmax,
    generate_client_data,
    monte_carlo,
    resolve_workers,
    robust_calibrate,
    run_trial,
    summarize,
)
from robfcp.sketch import ClientReport, uniform_bin_edges


_PARENT_PID = os.getpid()


def _fail_after_trial_0(config, trial_index):
    """``run_trial`` for trial 0; any later trial raises, naming the process it ran in.

    Module-level, so a worker unpickles it by name from the module it forked with.
    """
    if trial_index == 0:
        return run_trial(config, 0)
    where = "here" if os.getpid() == _PARENT_PID else "in a worker"
    raise InputError(f"trial {trial_index} failed {where}")


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


#: Each validated dataclass, keyword arguments it accepts, and the error class of its checks.
_VALIDATED = {
    SimulationConfig: (dict(K=8, k_m=1, n_per_client=300, C=5), ConfigError),
    AttackSpec: (dict(kind="gaussian"), InputError),
    CertificateParams: (dict(alpha=0.1, beta=0.05, num_bins=10, num_benign=9, num_malicious=1,
                             min_benign_n=1000, total_malicious_n=1000), InputError),
}
#: Every field annotated int or float, alone or as a per-client list.
_NUMERIC_FIELDS = [(cls, f.name) for cls in _VALIDATED for f in fields(cls)
                   if str(f.type).split(" |")[0] in ("int", "float")]


def test_numeric_fields_are_found_in_every_class():
    assert {cls for cls, _ in _NUMERIC_FIELDS} == set(_VALIDATED)
    assert (SimulationConfig, "signal") in _NUMERIC_FIELDS


@pytest.mark.parametrize("bad", [True, "x", math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls, name", _NUMERIC_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in _NUMERIC_FIELDS])
def test_every_numeric_field_rejects_non_numbers(cls, name, bad):
    """A boolean, a string, NaN and either infinity are a named error in every numeric field."""
    valid, error = _VALIDATED[cls]
    with pytest.raises(InputError) as info:
        cls(**{**valid, name: bad})
    assert type(info.value) is error
    assert str(info.value).startswith(f"{name} must be ")


class TestDataGeneration:
    def test_scores_live_on_unit_interval(self):
        profile = ClientProfile(2.0, 500)
        for kind in ("lac", "aps"):
            scores = generate_client_data(profile, 5, kind, np.random.default_rng(1))
            assert scores.shape == (500,)
            assert scores.min() >= 0.0 and scores.max() <= 1.0

    def test_signal_sharpens_scores(self):
        """Stronger true-class logit boost drives the true-label score down."""
        profile_weak = ClientProfile(0.0, 4000)
        profile_strong = ClientProfile(3.0, 4000)
        weak = generate_client_data(profile_weak, 5, "lac", np.random.default_rng(3))
        strong = generate_client_data(profile_strong, 5, "lac", np.random.default_rng(3))
        assert strong.mean() < weak.mean()
        # with no signal the softmax rows are exchangeable: mean ~ 1 - 1/C
        assert weak.mean() == pytest.approx(1.0 - 0.2, abs=0.02)

    def test_aps_uses_randomization(self):
        profile = ClientProfile(1.0, 300)
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

    def test_unknown_count_trial_touches_each_report_once(self, monkeypatch):
        """Each report is reconstructed once, and a coverage forgery gets no generator."""
        reconstructed, roles = [], []
        reconstruct, make_rng = sketch.reconstruct_counts, simulation._rng

        def counted(report):
            reconstructed.append(report.client_id)
            return reconstruct(report)

        for name, module in list(sys.modules.items()):  # wherever robfcp binds the function
            if name.startswith("robfcp") and vars(module).get("reconstruct_counts") is reconstruct:
                monkeypatch.setattr(module, "reconstruct_counts", counted)
        monkeypatch.setattr(simulation, "_rng", lambda *key: roles.append(key[2]) or make_rng(*key))
        report = run_trial(_config(K=10, k_m=3, attack=AttackSpec("coverage"), km_known=False), 0)
        assert report.k_m_hat == 3
        assert sorted(reconstructed) == list(range(10))
        assert simulation._ROLE_ATTACK not in roles

    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_forger_draws_its_own_data_only_if_its_kind_reads_it(self, monkeypatch, kind):
        keys, make_rng = [], simulation._rng
        monkeypatch.setattr(simulation, "_rng", lambda *key: keys.append(key[2:]) or make_rng(*key))
        cfg = _config(K=6, k_m=2, attack=AttackSpec(kind))
        run_trial(cfg, 0)
        drawn = {i for role, i in keys if role == simulation._ROLE_DATA}
        assert drawn - set(cfg.benign_ids) == (
            set(cfg.malicious_ids) if kind in OWN_REPORT_KINDS else set())

    @pytest.mark.parametrize("mode", ["histogram_direct", "sample"])
    def test_none_forger_sends_its_honest_report(self, monkeypatch, mode):
        sent, calibrate = [], simulation.robust_calibrate

        def recorded(reports, *args):
            sent.extend(reports)
            return calibrate(reports, *args)

        monkeypatch.setattr(simulation, "robust_calibrate", recorded)
        cfg = _config(K=6, k_m=2, H=10, attack=AttackSpec("none"), mode=mode)
        run_trial(cfg, 0)
        mode_cls = simulation._DirectMode if mode == "histogram_direct" else simulation._SampleMode
        honest = mode_cls(cfg, partial(simulation._rng, cfg.seed, 0), uniform_bin_edges(cfg.H))
        assert sent == [honest.honest_report(i) for i in range(cfg.K)]

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

    @pytest.mark.parametrize("seed, trial", [(0, 1), (6, 3), (42, 5)])
    def test_trial_is_not_another_seeds_trial(self, seed, trial):
        """Seed s, trial t and seed s xor t, trial 0 draw from different streams."""
        cfg = _config(K=8, k_m=3, attack=AttackSpec("coverage"), seed=seed)
        a = run_trial(cfg, trial)
        b = run_trial(replace(cfg, seed=seed ^ trial), 0)
        assert (a.q_naive, a.naive, a.certificate) != (b.q_naive, b.naive, b.certificate)


class TestPredictionSets:
    def test_evaluate_hand_example(self):
        # lac label scores 1 - p: [0.125, 0.875], [0.75, 0.25], [0.5, 0.5], [0.625, 0.375]
        p = np.array([[0.875, 0.125], [0.25, 0.75], [0.5, 0.5], [0.375, 0.625]])
        covered, sizes = _set_counts(p, np.array([0, 0, 1, 0]), "lac", None, [0.625, 0.25])
        # q=0.625 covers rows 0, 2 and 3 (0.625 <= 0.625), with sets {0}, {1}, {0, 1}, {0, 1};
        # q=0.25 covers row 0 only, with sets {0}, {1}, {}, {}
        assert covered.tolist() == [3, 1] and sizes.tolist() == [6, 2]

    @staticmethod
    def _label_order_matrix(mode):
        """The former evaluate's (n_test, C) label-order score matrix, and its labels."""
        config = mode.config
        weights = np.array([config.n_per_client[i] + 1.0 for i in config.benign_ids])
        per_client = mode.rng(simulation._ROLE_TEST, config.K).multinomial(
            config.n_test, weights / weights.sum())
        blocks, labels = [], []
        for i, count in zip(config.benign_ids, per_client):
            if count:
                gen = mode.rng(simulation._ROLE_TEST, i)
                probs, y = simulation._draw_rows(config.C, config.signal[i], int(count), gen)
                blocks.append(_score_batch(probs, y, config.score_kind, gen, per_label=True))
                labels.append(y)
        return np.concatenate(blocks), np.concatenate(labels)

    @pytest.mark.parametrize("kind", ["lac", "aps"])
    @pytest.mark.parametrize("cfg", [dict(C=100, n_test=2000), dict(C=3, n_test=7),
                                     dict(n_per_client=[1] * 7 + [10 ** 6], n_test=3)],
                             ids=["C=100", "C=3", "empty blocks"])
    def test_evaluate_equals_label_order_matrix(self, kind, cfg):
        """Counting each block in rank order gives the means over the concatenated matrix."""
        config = _config(score_kind=kind, **cfg)
        mode = simulation._SampleMode(config, partial(simulation._rng, config.seed, 0),
                                      uniform_bin_edges(config.H))
        m, y = self._label_order_matrix(mode)
        true = m[np.arange(y.size), y]
        # Bin edges, as calibration gives them, and scores of the batch itself.
        thresholds = [0.1, 0.5, 0.9, float(true[0]), float(m[-1, 0])]
        got = mode.evaluate([types.SimpleNamespace(q_hat=q) for q in thresholds])
        assert got == [simulation.EvalMetrics(float((true <= q).mean()),
                                              float((m <= q).sum(axis=1).mean()))
                       for q in thresholds]


class TestCertificateSigma:
    """sigma follows the client laws: clients that share a signal share their law."""

    MIMIC = dict(K=8, k_m=3, attack=AttackSpec("mimic"))

    @staticmethod
    def _certified(monkeypatch, cfg):
        """The trial, and the parameters its certificate was computed from."""
        seen = []

        def spy(params):
            seen.append(params)
            return coverage_bounds(params)

        monkeypatch.setattr(simulation, "coverage_bounds", spy)
        trial = run_trial(cfg, 0)
        assert seen[-1].num_malicious > 0  # a mimic copy survived screening
        return trial, seen[-1]

    def test_shared_signal_certificate_is_the_sigma_zero_bound(self, monkeypatch):
        trial, params = self._certified(monkeypatch, _config(**self.MIMIC))
        assert trial.certificate == coverage_bounds(replace(params, sigma=0.0))

    @staticmethod
    def _sigma_draws(monkeypatch):
        """Spy on the sample sketch path: (client, rows) of each draw from the sigma stream."""
        draws, honest_report = [], simulation._SampleMode.honest_report

        def spy(self, i, n=None, role=simulation._ROLE_DATA):
            if role == simulation._ROLE_SIGMA:
                draws.append((i, n))
            return honest_report(self, i, n, role)

        monkeypatch.setattr(simulation._SampleMode, "honest_report", spy)
        return draws

    def test_shared_signal_draws_no_reference(self, monkeypatch):
        draws = self._sigma_draws(monkeypatch)
        _, params = self._certified(monkeypatch, _config(**self.MIMIC))
        assert params.sigma == 0.0 and draws == []

    def test_two_signals_sigma_is_the_gap_between_their_references(self, monkeypatch):
        cfg = _config(K=8, k_m=1, attack=AttackSpec("mimic"),
                      signal=[1.0, 3.0, 1.0, 3.0, 1.0, 3.0, 1.0, 3.0])
        draws = self._sigma_draws(monkeypatch)
        trial, params = self._certified(monkeypatch, cfg)
        assert {cfg.signal[i] for i in trial.benign_set if i in cfg.benign_ids} == {1.0, 3.0}
        # the first benign clients with signal 1.0 and 3.0 key the two draws
        n = simulation._SIGMA_REFERENCE_N
        assert draws == [(0, n), (1, n)]
        references = [sketch.histogram_characterize(generate_client_data(
            ClientProfile(cfg.signal[i], n), cfg.C, cfg.score_kind,
            simulation._rng(cfg.seed, 0, simulation._ROLE_SIGMA, i)), uniform_bin_edges(cfg.H))
            for i in (0, 1)]
        assert params.sigma == heterogeneity_sigma(references) > 0.0


class TestCountRecovery:
    """k_m-unknown trials recover k_m = K/5 exactly, also when K reaches and passes H."""

    @pytest.mark.parametrize("attack", ["coverage", "gaussian"])
    @pytest.mark.parametrize("K", [20, 100, 150, 200])
    def test_exact_near_and_above_H(self, K, attack):
        got = [run_trial(_config(K=K, k_m=K // 5, n_per_client=2000, C=2, H=100,
                                 attack=AttackSpec(attack), km_known=False,
                                 mode="histogram_direct", seed=seed), 0).k_m_hat
               for seed in range(5)]
        assert got == [K // 5] * 5


def _fresh_unknown_count_trial(prelude: str, epilogue: str) -> str:
    """stdout of one k_m-unknown trial in a fresh interpreter, between two code snippets."""
    code = (f"import sys; {prelude}\n"
            "from robfcp.attacks import AttackSpec\n"
            "from robfcp.simulation import SimulationConfig, run_trial\n"
            "cfg = SimulationConfig(K=8, k_m=2, n_per_client=300, C=4, H=20, n_test=200,\n"
            "                       attack=AttackSpec('coverage'), km_known=False)\n"
            f"print(run_trial(cfg, 0).k_m_hat); {epilogue}\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_trial_runs_without_scipy():
    """The runtime needs numpy alone: a k_m-unknown trial with scipy unimportable."""
    assert _fresh_unknown_count_trial("sys.modules['scipy'] = None", "").strip() == "2"


def test_unknown_count_trial_leaves_numpy_ma_unimported():
    """The escape hatch's median imports nothing: np.median's NaN check pulls in numpy.ma."""
    out = _fresh_unknown_count_trial("", "print('numpy.ma' in sys.modules)")
    assert out.split() == ["2", "False"]


BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "tensordot", "cov", "corrcoef"}


def _blas_uses(tree):
    """The lines of a module that can reach BLAS, or an einsum that may choose to."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            yield node.lineno, "linalg"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
            if any("linalg" in name for name in names):
                yield node.lineno, "linalg"
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in BLAS_CALLS:
                yield node.lineno, name
            elif name == "einsum" and any(kw.arg == "optimize" for kw in node.keywords):
                yield node.lineno, "einsum(optimize=...)"


def test_src_makes_no_blas_call():
    """monte_carlo forks after numpy started OpenBLAS's threads, which is safe only without BLAS."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "robfcp")
    found = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as f:
                uses = list(_blas_uses(ast.parse(f.read())))
            if uses:
                found[name] = uses
    assert found == {}
    bad = ("x @ y; x @= y; np.linalg.norm(x); from numpy.linalg import norm; np.dot(x, y)\n"
           "x.dot(y); np.cov(x); np.einsum('ij,jk', x, y, optimize=True)\n")
    assert len(list(_blas_uses(ast.parse(bad)))) == 8


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

    @pytest.mark.parametrize("k_m", [True, -1, 2.5, 5])
    def test_k_m_error_names_k_m(self, k_m):
        """k_m is checked as given, not as the k_b = len(reports) - k_m it implies."""
        edges = uniform_bin_edges(2)
        reports = [ClientReport(i, 10, [0.5, 0.5], edges) for i in range(6)]
        with pytest.raises(InputError, match=rf"^k_m must be an integer in \[0, 5\), got {k_m!r}$"):
            robust_calibrate(reports, 0.1, k_m=k_m)

    @pytest.mark.parametrize("count", [0, 1])
    @pytest.mark.parametrize("k_m", [None, 0])
    def test_rejects_fewer_than_two_reports_first(self, count, k_m):
        reports = [ClientReport(i, 10, [0.5, 0.5], uniform_bin_edges(2)) for i in range(count)]
        with pytest.raises(InputError, match=rf"^need at least 2 reports, got {count}$"):
            robust_calibrate(reports, 0.5, k_m=k_m, p=0)

    @pytest.mark.parametrize("p", [0, "x", True, 2.5])
    def test_p_is_checked_when_nothing_is_screened(self, p):
        """With k_m=0 no distance is taken, yet a bad p is still an error naming p."""
        reports = [ClientReport(i, 10, [0.5, 0.5], uniform_bin_edges(2)) for i in range(3)]
        with pytest.raises(InputError, match=rf"^p must be an integer >= 1, got {p!r}$"):
            robust_calibrate(reports, 0.5, k_m=0, p=p)

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
            expected = rank_reports(reports, k - k_m)
            assert robust_calibrate(reports, 0.2, k_m).selected == expected
        k_m_hat = estimate_malicious_count(reports).k_m_hat
        expected = tuple(range(k)) if k_m_hat == 0 else rank_reports(reports, k - k_m_hat)
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
        assert multiprocessing.active_children() == []

    def test_trials_ordered_by_index(self):
        result = monte_carlo(_config(trials=4, n_test=100, n_per_client=100), max_workers=2)
        assert [t.trial_index for t in result.trials] == [0, 1, 2, 3]
        assert multiprocessing.active_children() == []

    def test_trial_error_crosses_the_worker_boundary(self, monkeypatch):
        """A worker's trial error keeps its type and message, and no worker outlives it."""
        # Trial 0 runs in this process before any fork; the fork inherits the patch.
        monkeypatch.setattr(simulation, "run_trial", _fail_after_trial_0)
        cfg = _config(K=4, k_m=1, n_per_client=50, n_test=100, trials=3)
        for workers, where in ((1, "here"), (2, "in a worker")):
            with pytest.raises(InputError) as info:
                monte_carlo(cfg, max_workers=workers)
            assert str(info.value) == f"trial 1 failed {where}"
            assert multiprocessing.active_children() == []

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
        for bad in (0, 2.5, True):
            with pytest.raises(InputError, match="max_workers"):
                resolve_workers(bad)
