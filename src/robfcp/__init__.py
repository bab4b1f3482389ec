"""Byzantine-robust federated conformal prediction over histogram sketches.

Clients summarize their calibration scores as fixed-grid histograms; the
server screens out forged reports, calibrates a federated quantile on the
survivors, and can certify the achieved coverage in closed form.
"""

from .attacks import AttackSpec, apply_attack
from .calibration import AggregateHistogram, QuantileEstimate, aggregate, federated_quantile
from .certify import (CertificateParams, CoverageCertificate, coverage_bounds,
                      coverage_bounds_dkw, estimator_precision_bound, heterogeneity_sigma,
                      overestimate_bounds, sketch_epsilon)
from .count_estimator import (CountEstimate, estimate_benign_count, estimate_malicious_count,
                              objective_T)
from .detection import maliciousness_scores, pairwise_distances, rank_reports
from .errors import ConfigError, FormatError, InputError, RobfcpError
from .io import config_echo, parse_config, read_reports, reports_from_csv
from .scores import score_batch
from .simulation import (CalibrationResult, ClientProfile, EvalMetrics, MonteCarloResult,
                         SimulationConfig, TrialReport, generate_client_data, monte_carlo,
                         robust_calibrate, run_trial)
from .sketch import (ClientReport, histogram_characterize, reconstruct_counts, report_from_json,
                     report_to_json, sketch_scores, uniform_bin_edges)

__version__ = "0.1.0"

__all__ = [
    "AggregateHistogram", "AttackSpec", "CalibrationResult", "CertificateParams",
    "ClientProfile", "ClientReport", "ConfigError", "CountEstimate", "CoverageCertificate",
    "EvalMetrics", "FormatError", "InputError", "MonteCarloResult", "QuantileEstimate",
    "RobfcpError", "SimulationConfig", "TrialReport", "aggregate", "apply_attack",
    "config_echo", "coverage_bounds", "coverage_bounds_dkw", "estimate_benign_count",
    "estimate_malicious_count", "estimator_precision_bound", "federated_quantile",
    "generate_client_data", "heterogeneity_sigma", "histogram_characterize",
    "maliciousness_scores", "monte_carlo", "objective_T", "overestimate_bounds",
    "pairwise_distances", "parse_config", "rank_reports", "read_reports",
    "reconstruct_counts", "report_from_json", "report_to_json", "reports_from_csv",
    "robust_calibrate", "run_trial", "score_batch", "sketch_epsilon", "sketch_scores",
    "uniform_bin_edges",
]
