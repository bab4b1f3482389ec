"""Synthetic federated experiments: data generation, trials, Monte Carlo loops.

A trial builds a federation, lets the malicious clients forge their reports,
and runs the server pipeline, :func:`robust_calibrate` (shared with the
``calibrate`` CLI): screen, estimate k_m if unknown, and calibrate twice
(naive: every report; robust: the kept clients).  It then evaluates both
thresholds and certifies the robust one.  The two modes differ only in how
honest reports, the certificate's sigma and coverage are produced: ``sample``
draws rows from a synthetic classifier and tests on a fresh batch, while
``histogram_direct`` draws bin counts from a known law, so coverage is exact.
Every random draw comes from a generator keyed by (seed, trial_index, role,
client) as a ``SeedSequence`` spawn key, so no two (seed, trial) pairs share a
stream and results do not depend on the worker count or execution order.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .attacks import DRAWING_KINDS, OWN_REPORT_KINDS, AttackSpec, apply_attack
from .calibration import QuantileEstimate, aggregate, federated_quantile
from .certify import CertificateParams, CoverageCertificate, coverage_bounds, heterogeneity_sigma, sketch_epsilon
from .count_estimator import estimate_malicious_count
from .detection import as_vector_matrix, rank_reports
from .errors import ConfigError, InputError, _integer, _real
from .scores import SCORE_KINDS, _score_batch, _set_counts
from .sketch import ClientReport, sketch_scores, uniform_bin_edges

MODES = ("sample", "histogram_direct")

# Stream roles for per-trial generator derivation.
_ROLE_DATA = 1
_ROLE_ATTACK = 2
_ROLE_TEST = 3
_ROLE_SIGMA = 4

# Rows per reference vector, drawn once per signal when the kept clients'
# signals differ: the synthetic score law has no closed-form bin masses.
_SIGMA_REFERENCE_N = 4096

_MAX_SEED = 2 ** 64


def _rng(seed: int, trial_index: int, role: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(
        entropy=seed, spawn_key=(trial_index, role, index)))


def _per_client(name: str, value, num_clients: int) -> tuple:
    """A list of one value per client, or one value shared by every client."""
    if not isinstance(value, (list, tuple, np.ndarray)):
        return (value,) * num_clients
    if len(value) != num_clients:
        raise ConfigError(f"{name} list must have K={num_clients} entries, got {len(value)}")
    return tuple(value)


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
        for name, low in (("K", 2), ("k_m", 0), ("C", 2), ("H", 1), ("p_norm", 1),
                          ("n_test", 1), ("trials", 1)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), low,
                                                    error=ConfigError))
        object.__setattr__(self, "seed", _integer("seed", self.seed, 0, _MAX_SEED, ConfigError))
        for name in ("alpha", "beta"):
            object.__setattr__(self, name, _real(name, getattr(self, name), 0.0, 1.0, ConfigError))
        if self.k_m >= self.K - self.k_m:
            raise ConfigError(
                f"malicious clients must be a strict minority: k_m={self.k_m} with K={self.K}")
        if self.score_kind not in SCORE_KINDS:
            raise ConfigError(f"score_kind must be one of {SCORE_KINDS}, got {self.score_kind!r}")
        if not isinstance(self.attack, AttackSpec):
            raise ConfigError("attack must be an AttackSpec")
        if not isinstance(self.km_known, bool):
            raise ConfigError("km_known must be a boolean")
        if not self.km_known and self.K < 4:
            raise ConfigError("estimating the malicious count requires K >= 4")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        ns = _per_client("n_per_client", self.n_per_client, self.K)
        object.__setattr__(self, "n_per_client", tuple(
            _integer("n_per_client", n, 1, error=ConfigError) for n in ns))
        signals = _per_client("signal", self.signal, self.K)
        object.__setattr__(self, "signal", tuple(_real("signal", s, error=ConfigError)
                                                 for s in signals))

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

    signal: float
    n: int


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax computed in place: ``logits`` is overwritten and returned.

    The same IEEE operations as shift, exp and divide into fresh arrays, so
    the result is bit-identical, without two (n, C) temporaries per draw.
    """
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def _draw_rows(num_classes: int, signal: float, n: int, rng: np.random.Generator):
    """Uniform labels and softmax probabilities with a boosted true logit."""
    labels = rng.integers(num_classes, size=n)
    logits = rng.standard_normal((n, num_classes))
    logits[np.arange(n), labels] += signal
    return _softmax(logits), labels


def generate_client_data(profile: ClientProfile, num_classes: int, score_kind: str,
                         rng: np.random.Generator) -> np.ndarray:
    """True-label calibration scores of ``profile.n`` fresh rows of one client."""
    probs, labels = _draw_rows(num_classes, profile.signal, profile.n, rng)
    return _score_batch(probs, labels, score_kind, rng)


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
    ids in ascending order, whatever the order of ``reports``.  Fewer than 2
    reports, a ``p`` that is not an integer >= 1 or a ``k_m`` outside
    ``[0, len(reports) - 2]`` is an :class:`InputError`, and ``alpha`` must be
    admissible for the whole federation and the kept clients.  The vectors are
    stacked once, if the estimate or screen runs.
    """
    reports = list(reports)
    if len(reports) < 2:
        raise InputError(f"need at least 2 reports, got {len(reports)}")
    p = _integer("p", p, 1)
    if k_m is not None:
        k_m = _integer("k_m", k_m, 0, len(reports) - 1)
    vectors = None if k_m == 0 else as_vector_matrix(reports)
    if k_m is None:
        k_m = estimate_malicious_count(vectors, p=p).k_m_hat
    if k_m == 0:
        rows = range(len(reports))
    else:
        rows = rank_reports(vectors, len(reports) - k_m, p=p)
    selected = tuple(sorted(reports[row].client_id for row in rows))
    return CalibrationResult(
        selected=selected, k_m_hat=k_m,
        naive=federated_quantile(aggregate(reports), alpha),
        robust=federated_quantile(aggregate(reports, selected), alpha))


@dataclass(frozen=True)
class EvalMetrics:
    """Marginal coverage and average prediction-set size on a test batch."""

    marginal_coverage: float
    average_set_size: float


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


def _certificate(mode, selected, reports_by_id) -> CoverageCertificate:
    """Certificate with the generator's ground truth plugged in."""
    config = mode.config
    benign_ids = set(config.benign_ids)
    benign_sel = [i for i in selected if i in benign_ids]
    malicious_sel = [i for i in selected if i not in benign_ids]
    benign_agg = aggregate([reports_by_id[i] for i in benign_sel])
    params = CertificateParams(
        alpha=config.alpha, beta=config.beta, num_bins=config.H,
        num_benign=len(selected), num_malicious=len(malicious_sel),
        min_benign_n=min(reports_by_id[i].n for i in benign_sel),
        total_malicious_n=sum(reports_by_id[i].n for i in malicious_sel),
        # sigma only scales the forged mass that survived, so skip it when none did.
        sigma=mode.sigma(benign_sel) if malicious_sel else 0.0,
        epsilon=sketch_epsilon(benign_agg))
    return coverage_bounds(params)


class _SampleMode:
    """Clients draw rows from the synthetic classifier and sketch their scores.

    Labels are uniform and the logits are iid N(0, 1) plus ``signal`` on the
    true label: a client's score law, and so its expected characterization
    vector, depends on its signal alone.
    """

    def __init__(self, config: SimulationConfig, rng, edges: np.ndarray):
        self.config, self.rng, self.edges = config, rng, edges

    def honest_report(self, i: int, n: int | None = None, role: int = _ROLE_DATA) -> ClientReport:
        config = self.config
        profile = ClientProfile(config.signal[i], config.n_per_client[i] if n is None else n)
        scores = generate_client_data(profile, config.C, config.score_kind, self.rng(role, i))
        return sketch_scores(i, scores, self.edges)

    def sigma(self, benign_ids) -> float:
        """Largest l1 gap between the expected vectors of ``benign_ids``.

        0.0, with nothing drawn, when they share a signal; otherwise taken over
        one reference sketch per signal, keyed by the first client with it.
        """
        signal = self.config.signal
        kept = sorted({signal[i] for i in benign_ids})
        if len(kept) == 1:
            return 0.0
        return heterogeneity_sigma([self.honest_report(signal.index(s), _SIGMA_REFERENCE_N,
                                                       _ROLE_SIGMA).v for s in kept])

    def evaluate(self, quantiles) -> list[EvalMetrics]:
        """Each threshold on one test batch drawn from the benign clients, weights n_k + 1."""
        config = self.config
        weights = np.array([config.n_per_client[i] + 1.0 for i in config.benign_ids])
        weights /= weights.sum()
        per_client = self.rng(_ROLE_TEST, config.K).multinomial(config.n_test, weights)
        thresholds, counts = [q.q_hat for q in quantiles], 0
        for i, count in zip(config.benign_ids, per_client):  # an empty block counts nothing
            gen = self.rng(_ROLE_TEST, i)
            probs, labels = _draw_rows(config.C, config.signal[i], int(count), gen)
            counts = counts + _set_counts(probs, labels, config.score_kind, gen, thresholds)
        return [EvalMetrics(covered / config.n_test, size / config.n_test)
                for covered, size in counts.T.tolist()]


class _DirectMode:
    """Honest bin counts are drawn straight from a known law shared by every client.

    Direct mode exists to validate certificates at sample sizes where
    per-sample generation is wasteful.  The law is uniform: it maximally
    spreads mass, which minimizes the sketch's rank-resolution term
    epsilon = max bin mass (its floor is 1/H); all clients share it, so
    sigma = 0 exactly.  A forger's own report is drawn like an honest one, and
    its ``gaussian`` forgery K.v_own is exact: the law is uniform within bins.
    """

    def __init__(self, config: SimulationConfig, rng, edges: np.ndarray):
        self.config, self.rng, self.edges = config, rng, edges
        self.true_v = np.full(config.H, 1.0 / config.H)

    def honest_report(self, i: int) -> ClientReport:
        n = self.config.n_per_client[i]
        counts = self.rng(_ROLE_DATA, i).multinomial(n, self.true_v)
        return ClientReport(client_id=i, n=n, v=counts / n, edges=self.edges)

    def sigma(self, benign_ids) -> float:
        return 0.0

    def evaluate(self, quantiles) -> list[EvalMetrics]:
        """Exact coverage: thresholds are bin upper edges and the law has no atoms.

        There is no label space in this mode, so set size is reported as 0.0.
        """
        cum = np.cumsum(self.true_v)
        return [EvalMetrics(marginal_coverage=float(cum[q.bin_index]), average_set_size=0.0)
                for q in quantiles]


def run_trial(config: SimulationConfig, trial_index: int) -> TrialReport:
    """Run one seeded trial end to end."""
    trial_index = _integer("trial_index", trial_index, 0)
    rng = partial(_rng, config.seed, trial_index)
    edges = uniform_bin_edges(config.H)
    mode_cls = _DirectMode if config.mode == "histogram_direct" else _SampleMode
    mode = mode_cls(config, rng, edges)

    benign_reports = [mode.honest_report(i) for i in config.benign_ids]
    reports = list(benign_reports)
    # A forger gets a generator, or its own honest report, only if its kind reads it.
    draws = config.attack.kind in DRAWING_KINDS
    own = config.attack.kind in OWN_REPORT_KINDS
    for i in config.malicious_ids:
        reports.append(apply_attack(config.attack, i, config.n_per_client[i], edges,
                                    rng(_ROLE_ATTACK, i) if draws else None,
                                    own_report=mode.honest_report(i) if own else None,
                                    benign_reports=benign_reports))

    result = robust_calibrate(reports, config.alpha,
                              config.k_m if config.km_known else None, config.p_norm)
    naive, robust = mode.evaluate((result.naive, result.robust))
    certificate = _certificate(mode, result.selected, {r.client_id: r for r in reports})

    return TrialReport(
        trial_index=trial_index, naive=naive, robust=robust,
        benign_set=result.selected, k_m_hat=result.k_m_hat, certificate=certificate,
        q_naive=result.naive.q_hat, q_robust=result.robust.q_hat,
        detection_exact=set(result.selected) == set(config.benign_ids))


def resolve_workers(requested: int | None = None) -> int:
    """Worker count: the request, or by default up to 4 cpus."""
    if requested is None:
        return min(4, os.cpu_count() or 1)
    return _integer("max_workers", requested, 1)


@dataclass(frozen=True)
class MonteCarloResult:
    """All trial reports plus per-metric summary statistics."""

    trials: tuple[TrialReport, ...]
    aggregates: dict


def trial_columns(t: TrialReport) -> dict:
    """One trial's value columns, in the order of the ``simulate --csv`` columns."""
    return {"naive_cov": t.naive.marginal_coverage, "naive_size": t.naive.average_set_size,
            "rob_cov": t.robust.marginal_coverage, "rob_size": t.robust.average_set_size,
            "km_hat": t.k_m_hat, "detect_exact": t.detection_exact,
            "bound_lo": t.certificate.lower, "bound_hi": t.certificate.upper}


def summarize(trials) -> dict:
    """Mean, std, min and max of each numeric :func:`trial_columns` entry, then each bool's rate."""
    rows = [trial_columns(t) for t in trials]
    if not rows:
        raise InputError("need at least one trial to summarize")
    out = {}
    for name, first in sorted(rows[0].items(), key=lambda item: isinstance(item[1], bool)):
        values = np.array([row[name] for row in rows], dtype=float)
        out[name] = {"rate": float(values.mean())} if isinstance(first, bool) else {
            "mean": float(values.mean()), "std": float(values.std()),
            "min": float(values.min()), "max": float(values.max())}
    return out


def monte_carlo(config: SimulationConfig, max_workers: int | None = None) -> MonteCarloResult:
    """Run all trials and reduce in trial order.

    Trial 0 runs in this process, and so do the rest with one worker.  Else
    ``min(workers, trials - 1)`` worker processes run them.  Two threads over
    a trial's clients, measured on a 2-core VM, cut a C=100 ``aps`` trial's
    median 25 % for 16 % more CPU and 12 % more peak RSS, and slowed a C=10
    ``lac`` trial 21 %.  On Linux the workers are forked after trial 0, so
    they inherit robfcp, numpy and every module that trial imported; elsewhere
    the platform's default start method (``spawn``) re-imports them, and a
    script must call this under ``if __name__ == "__main__":``.  A trial's
    streams depend only on its index, so the result is the same for any
    worker count, and a trial's error is raised here with its type and message.
    """
    workers = resolve_workers(max_workers)
    trials = [run_trial(config, 0)]
    rest = range(1, config.trials)
    if workers == 1 or not rest:
        trials += [run_trial(config, i) for i in rest]
    else:
        # Imported here so a serial run never pays for the process pool.
        import multiprocessing
        from concurrent.futures.process import ProcessPoolExecutor

        # Forking is safe although numpy has started OpenBLAS's idle threads:
        # robfcp makes no BLAS call, so no child waits on their locks.
        context = multiprocessing.get_context("fork" if sys.platform == "linux" else None)
        with ProcessPoolExecutor(min(workers, len(rest)), mp_context=context) as pool:
            trials += pool.map(partial(run_trial, config), rest)
    return MonteCarloResult(trials=tuple(trials), aggregates=summarize(trials))
