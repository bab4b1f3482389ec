"""Synthetic federated experiments: data generation, trials, Monte Carlo loops.

A trial builds a federation, lets the malicious clients forge their reports,
and runs the server pipeline, :func:`robust_calibrate` (shared with the
``calibrate`` CLI): screen, estimate k_m if unknown, and calibrate twice
(naive: every report; robust: the kept clients).  It then evaluates both
thresholds and certifies the robust one.  The two modes differ only in how
honest reports, expected vectors and coverage are produced: ``sample`` draws
rows from a synthetic classifier and tests on a fresh batch, while
``histogram_direct`` draws bin counts from a known law, so coverage is exact.
Every random draw comes from a generator keyed by (seed xor trial_index,
role, client), so results are identical regardless of thread count or
execution order.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .attacks import AttackSpec, apply_attack
from .calibration import EvalMetrics, QuantileEstimate, aggregate, evaluate, federated_quantile
from .certify import CertificateParams, CoverageCertificate, coverage_bounds, heterogeneity_sigma, sketch_epsilon
from .count_estimator import estimate_malicious_count
from .detection import rank_reports
from .errors import ConfigError, InputError
from .scores import SCORE_KINDS, TestBatch, score_batch
from .sketch import ClientReport, sketch_scores, uniform_bin_edges

MODES = ("sample", "histogram_direct")

# Stream roles for per-trial generator derivation.
_ROLE_MIXTURE = 0
_ROLE_DATA = 1
_ROLE_ATTACK = 2
_ROLE_TEST = 3
_ROLE_SIGMA = 4

# Reference sample size per client for the Monte-Carlo estimate of expected
# characterization vectors (used only for the sigma plugged into sample-mode
# certificates; the synthetic score law has no closed-form bin masses).
_SIGMA_REFERENCE_N = 4096

_MAX_SEED = 2 ** 64


def _rng(trial_seed: int, role: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=trial_seed,
                                                        spawn_key=(role, index)))


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one experiment; every field lands in config_echo."""

    K: int
    k_m: int
    n_per_client: int | tuple[int, ...]
    C: int
    H: int = 100
    alpha: float = 0.1
    beta: float = 0.05
    dirichlet_beta: float = 0.5
    signal: float | tuple[float, ...] = 2.0
    score_kind: str = "lac"
    attack: AttackSpec = field(default_factory=AttackSpec)
    p_norm: int = 2
    km_known: bool = True
    n_test: int = 2000
    trials: int = 1
    seed: int = 0
    mode: str = "sample"

    def __post_init__(self):
        if int(self.K) != self.K or self.K < 2:
            raise ConfigError(f"K must be an integer >= 2, got {self.K}")
        if int(self.k_m) != self.k_m or self.k_m < 0:
            raise ConfigError(f"k_m must be a non-negative integer, got {self.k_m}")
        if self.k_m >= self.K - self.k_m:
            raise ConfigError(
                f"malicious clients must be a strict minority: k_m={self.k_m} with K={self.K}")
        if int(self.C) != self.C or self.C < 2:
            raise ConfigError(f"C must be an integer >= 2, got {self.C}")
        if int(self.H) != self.H or self.H < 1:
            raise ConfigError(f"H must be an integer >= 1, got {self.H}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0.0 < self.beta < 1.0:
            raise ConfigError(f"beta must lie in (0, 1), got {self.beta}")
        if not self.dirichlet_beta > 0.0:
            raise ConfigError(f"dirichlet_beta must be positive, got {self.dirichlet_beta}")
        if self.score_kind not in SCORE_KINDS:
            raise ConfigError(f"score_kind must be one of {SCORE_KINDS}, got {self.score_kind!r}")
        if not isinstance(self.attack, AttackSpec):
            raise ConfigError("attack must be an AttackSpec")
        if int(self.p_norm) != self.p_norm or self.p_norm < 1:
            raise ConfigError(f"p_norm must be an integer >= 1, got {self.p_norm}")
        if not isinstance(self.km_known, bool):
            raise ConfigError("km_known must be a boolean")
        if not self.km_known and self.K < 4:
            raise ConfigError("estimating the malicious count requires K >= 4")
        if int(self.n_test) != self.n_test or self.n_test < 1:
            raise ConfigError(f"n_test must be a positive integer, got {self.n_test}")
        if int(self.trials) != self.trials or self.trials < 1:
            raise ConfigError(f"trials must be a positive integer, got {self.trials}")
        if int(self.seed) != self.seed or not 0 <= self.seed < _MAX_SEED:
            raise ConfigError(f"seed must be an integer in [0, 2^64), got {self.seed}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")

        ns = self.n_per_client
        if isinstance(ns, (int, np.integer)):
            ns = (int(ns),) * int(self.K)
        else:
            ns = tuple(int(n) for n in ns)
            if len(ns) != self.K:
                raise ConfigError(f"n_per_client list must have K={self.K} entries, got {len(ns)}")
        if any(n < 1 for n in ns):
            raise ConfigError("every per-client sample count must be >= 1")
        object.__setattr__(self, "n_per_client", ns)

        sig = self.signal
        if isinstance(sig, (int, float, np.floating, np.integer)):
            sig = (float(sig),) * int(self.K)
        else:
            sig = tuple(float(s) for s in sig)
            if len(sig) != self.K:
                raise ConfigError(f"signal list must have K={self.K} entries, got {len(sig)}")
        object.__setattr__(self, "signal", sig)

        for name in ("K", "k_m", "C", "H", "p_norm", "n_test", "trials", "seed"):
            object.__setattr__(self, name, int(getattr(self, name)))
        for name in ("alpha", "beta", "dirichlet_beta"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def benign_ids(self) -> tuple[int, ...]:
        return tuple(range(self.K - self.k_m))

    @property
    def malicious_ids(self) -> tuple[int, ...]:
        """By convention the top k_m client ids are the malicious ones."""
        return tuple(range(self.K - self.k_m, self.K))


@dataclass(frozen=True)
class ClientProfile:
    """One client's data-generating parameters."""

    client_id: int
    mixture: np.ndarray  # (C,) class mixture
    signal: float
    n: int


def dirichlet_mixture(num_classes: int, num_clients: int, beta: float,
                      rng: np.random.Generator) -> np.ndarray:
    """Client class mixtures from per-class Dirichlet shares.

    Each class's mass is split across clients with a Dirichlet(beta) draw;
    client j's mixture is its column of shares, renormalized.  Small beta
    concentrates classes on few clients.  Returns a (K, C) row-stochastic
    matrix.
    """
    if num_classes < 2:
        raise InputError(f"need at least 2 classes, got {num_classes}")
    if num_clients < 1:
        raise InputError(f"need at least 1 client, got {num_clients}")
    if not beta > 0.0:
        raise InputError(f"dirichlet beta must be positive, got {beta}")
    shares = rng.dirichlet(np.full(num_clients, beta), size=num_classes)  # (C, K)
    mixtures = shares.T
    return mixtures / mixtures.sum(axis=1, keepdims=True)


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax computed in place: ``logits`` is overwritten and returned.

    The same IEEE operations as shift, exp and divide into fresh arrays, so
    the result is bit-identical, without two (n, C) temporaries per draw.
    """
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def _draw_rows(mixture: np.ndarray, signal: float, n: int, rng: np.random.Generator):
    """Labels from the mixture and softmax probabilities with a boosted true logit."""
    num_classes = mixture.size
    labels = rng.choice(num_classes, size=n, p=mixture)
    logits = rng.standard_normal((n, num_classes))
    logits[np.arange(n), labels] += signal
    return _softmax(logits), labels


def generate_client_data(profile: ClientProfile, num_classes: int, score_kind: str,
                         rng: np.random.Generator) -> np.ndarray:
    """True-label calibration scores of ``profile.n`` fresh rows of one client."""
    if profile.mixture.size != num_classes:
        raise InputError("profile mixture length does not match num_classes")
    probs, labels = _draw_rows(profile.mixture, profile.signal, profile.n, rng)
    return score_batch(probs, labels, score_kind, rng)


@dataclass(frozen=True)
class CalibrationResult:
    """What the server decided: the kept client ids, the malicious count and both thresholds."""

    selected: tuple[int, ...]
    k_m_hat: int
    naive: QuantileEstimate
    robust: QuantileEstimate


def robust_calibrate(reports, alpha: float, k_m: int | None = None, p=2) -> CalibrationResult:
    """Screen, estimate k_m when it is None, and calibrate on all and on the kept reports.

    The ``len(reports) - k_m`` reports with the lowest maliciousness scores
    are kept; with ``k_m=0`` every report is.  ``selected`` holds their client
    ids in ascending order, whatever the order of ``reports``.  A ``k_m``
    outside ``[0, len(reports) - 2]`` is an :class:`InputError`, and
    ``alpha`` must be admissible for the whole federation as well as for the
    kept clients.
    """
    reports = list(reports)
    if k_m is None:
        k_m = estimate_malicious_count(reports, p=p).k_m_hat
    if k_m == 0:
        rows = range(len(reports))
    else:
        rows = rank_reports(reports, len(reports) - k_m, p=p).benign_set
    selected = tuple(sorted(reports[row].client_id for row in rows))
    return CalibrationResult(
        selected=selected, k_m_hat=int(k_m),
        naive=federated_quantile(aggregate(reports), alpha),
        robust=federated_quantile(aggregate(reports, selected), alpha))


@dataclass(frozen=True)
class TrialReport:
    """Everything one trial produced."""

    trial_index: int
    naive: EvalMetrics
    robust: EvalMetrics
    benign_set: tuple[int, ...]
    k_m_hat: int
    certificate: CoverageCertificate
    q_naive: float
    q_robust: float
    detection_exact: bool


def _certificate(config: SimulationConfig, selected, reports_by_id,
                 expected_vectors_by_id) -> CoverageCertificate:
    """Certificate with the generator's ground truth plugged in."""
    benign_ids = set(config.benign_ids)
    benign_sel = [i for i in selected if i in benign_ids]
    malicious_sel = [i for i in selected if i not in benign_ids]
    benign_agg = aggregate([reports_by_id[i] for i in benign_sel])
    params = CertificateParams(
        alpha=config.alpha, beta=config.beta, num_bins=config.H,
        num_benign=len(selected), num_malicious=len(malicious_sel),
        min_benign_n=min(reports_by_id[i].n for i in benign_sel),
        total_malicious_n=sum(reports_by_id[i].n for i in malicious_sel),
        sigma=heterogeneity_sigma([expected_vectors_by_id[i] for i in benign_sel]),
        epsilon=sketch_epsilon(benign_agg))
    return coverage_bounds(params)


class _SampleMode:
    """Clients draw rows from the synthetic classifier and sketch their scores."""

    def __init__(self, config: SimulationConfig, trial_seed: int, edges: np.ndarray):
        self.config, self.trial_seed, self.edges = config, trial_seed, edges
        mixtures = dirichlet_mixture(config.C, config.K, config.dirichlet_beta,
                                     _rng(trial_seed, _ROLE_MIXTURE))
        self.profiles = [ClientProfile(i, mixtures[i], config.signal[i], config.n_per_client[i])
                         for i in range(config.K)]

    def scores(self, i: int) -> np.ndarray:
        return generate_client_data(self.profiles[i], self.config.C, self.config.score_kind,
                                    _rng(self.trial_seed, _ROLE_DATA, i))

    def honest_report(self, i: int) -> ClientReport:
        return sketch_scores(i, self.scores(i), self.edges)

    def expected_vector(self, i: int) -> np.ndarray:
        """Monte-Carlo estimate of client i's bin masses, for the certificate's sigma."""
        rng = _rng(self.trial_seed, _ROLE_SIGMA, i)
        profile = self.profiles[i]
        probs, labels = _draw_rows(profile.mixture, profile.signal, _SIGMA_REFERENCE_N, rng)
        counts, _ = np.histogram(score_batch(probs, labels, self.config.score_kind, rng),
                                 bins=self.edges)
        return counts / _SIGMA_REFERENCE_N

    def evaluate(self, quantiles) -> list[EvalMetrics]:
        """Each threshold on one test batch: benign mixture, client weights n_k + 1."""
        config = self.config
        weights = np.array([self.profiles[i].n + 1.0 for i in config.benign_ids])
        weights /= weights.sum()
        per_client = _rng(self.trial_seed, _ROLE_TEST, config.K).multinomial(config.n_test, weights)
        score_rows, label_rows = [], []
        for i, count in zip(config.benign_ids, per_client):
            if count == 0:
                continue
            gen = _rng(self.trial_seed, _ROLE_TEST, i)
            probs, labels = _draw_rows(self.profiles[i].mixture, self.profiles[i].signal,
                                       int(count), gen)
            score_rows.append(score_batch(probs, labels, config.score_kind, gen, per_label=True))
            label_rows.append(labels)
        test = TestBatch(np.concatenate(score_rows), np.concatenate(label_rows))
        return [evaluate(test, q.q_hat) for q in quantiles]


class _DirectMode:
    """Honest bin counts are drawn straight from a known law shared by every client.

    Direct mode exists to validate certificates at sample sizes where
    per-sample generation is wasteful.  The law is uniform: it maximally
    spreads mass, which minimizes the sketch's rank-resolution term
    epsilon = max bin mass (its floor is 1/H); all clients share it, so
    sigma = 0 exactly.
    """

    def __init__(self, config: SimulationConfig, trial_seed: int, edges: np.ndarray):
        self.config, self.trial_seed, self.edges = config, trial_seed, edges
        self.true_v = np.full(config.H, 1.0 / config.H)

    def scores(self, i: int) -> np.ndarray:
        """Raw scores from the piecewise-uniform law implied by (edges, true_v)."""
        n = self.config.n_per_client[i]
        rng = _rng(self.trial_seed, _ROLE_DATA, i)
        bins = rng.choice(self.true_v.size, size=n, p=self.true_v)
        widths = np.diff(self.edges)
        return self.edges[bins] + rng.uniform(size=n) * widths[bins]

    def honest_report(self, i: int) -> ClientReport:
        n = self.config.n_per_client[i]
        counts = _rng(self.trial_seed, _ROLE_DATA, i).multinomial(n, self.true_v)
        return ClientReport(client_id=i, n=n, v=counts / n, edges=self.edges)

    def expected_vector(self, i: int) -> np.ndarray:
        return self.true_v

    def evaluate(self, quantiles) -> list[EvalMetrics]:
        """Exact coverage: thresholds are bin upper edges and the law has no atoms.

        There is no label space in this mode, so set size is reported as 0.0.
        """
        cum = np.cumsum(self.true_v)
        return [EvalMetrics(marginal_coverage=float(cum[q.bin_index]), average_set_size=0.0)
                for q in quantiles]


def run_trial(config: SimulationConfig, trial_index: int) -> TrialReport:
    """Run one seeded trial end to end."""
    if trial_index < 0:
        raise InputError(f"trial_index must be >= 0, got {trial_index}")
    trial_seed = config.seed ^ trial_index
    edges = uniform_bin_edges(config.H)
    mode_cls = _DirectMode if config.mode == "histogram_direct" else _SampleMode
    mode = mode_cls(config, trial_seed, edges)

    benign_reports = [mode.honest_report(i) for i in config.benign_ids]
    reports = list(benign_reports)
    for i in config.malicious_ids:
        # Only these attacks forge from the client's own raw scores.
        own = mode.scores(i) if config.attack.kind in ("gaussian", "none") else None
        reports.append(apply_attack(config.attack, i, config.n_per_client[i], edges,
                                    _rng(trial_seed, _ROLE_ATTACK, i),
                                    benign_scores=own, benign_reports=benign_reports))

    result = robust_calibrate(reports, config.alpha,
                              config.k_m if config.km_known else None, config.p_norm)
    naive, robust = mode.evaluate((result.naive, result.robust))
    expected = {i: mode.expected_vector(i) for i in config.benign_ids}
    certificate = _certificate(config, result.selected, {r.client_id: r for r in reports},
                               expected)

    return TrialReport(
        trial_index=int(trial_index), naive=naive, robust=robust,
        benign_set=result.selected, k_m_hat=result.k_m_hat, certificate=certificate,
        q_naive=result.naive.q_hat, q_robust=result.robust.q_hat,
        detection_exact=set(result.selected) == set(config.benign_ids))


def resolve_workers(requested: int | None = None) -> int:
    """Worker count: the request, or by default up to 4 cpus."""
    if requested is not None and requested < 1:
        raise InputError(f"worker count must be >= 1, got {requested}")
    return requested if requested is not None else min(4, os.cpu_count() or 1)


@dataclass(frozen=True)
class MonteCarloResult:
    """All trial reports plus per-metric summary statistics."""

    trials: tuple[TrialReport, ...]
    aggregates: dict


def _summary(values: np.ndarray) -> dict:
    return {"mean": float(values.mean()), "std": float(values.std()),
            "min": float(values.min()), "max": float(values.max())}


def summarize(trials) -> dict:
    """Deterministic per-metric aggregates over an ordered trial list."""
    trials = list(trials)
    if not trials:
        raise InputError("need at least one trial to summarize")
    columns = {
        "naive_cov": [t.naive.marginal_coverage for t in trials],
        "naive_size": [t.naive.average_set_size for t in trials],
        "rob_cov": [t.robust.marginal_coverage for t in trials],
        "rob_size": [t.robust.average_set_size for t in trials],
        "km_hat": [t.k_m_hat for t in trials],
        "bound_lo": [t.certificate.lower for t in trials],
        "bound_hi": [t.certificate.upper for t in trials],
    }
    out = {name: _summary(np.array(vals, dtype=float)) for name, vals in columns.items()}
    out["detect_exact"] = {"rate": float(np.mean([t.detection_exact for t in trials]))}
    return out


def monte_carlo(config: SimulationConfig, max_workers: int | None = None) -> MonteCarloResult:
    """Run all trials (possibly in a thread pool) and reduce in trial order."""
    workers = resolve_workers(max_workers)
    indices = range(config.trials)
    if workers == 1 or config.trials == 1:
        trials = [run_trial(config, i) for i in indices]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            trials = list(pool.map(lambda i: run_trial(config, i), indices))
    return MonteCarloResult(trials=tuple(trials), aggregates=summarize(trials))
