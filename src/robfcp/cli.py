"""Command-line front end.

Subcommands: ``simulate`` (Monte-Carlo experiments from a JSON config),
``certify`` (closed-form coverage bounds from explicit parameters),
``estimate`` (malicious-count scan over a report file), and ``calibrate``
(screen + federated quantile over a report file or score CSV).

Every failure exits nonzero after printing a single ``ERROR:<code>:<message>``
line to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .certify import (CertificateParams, CoverageCertificate, coverage_bounds,
                      coverage_bounds_dkw, overestimate_bounds)
from .count_estimator import estimate_malicious_count
from .errors import RobfcpError
from .io import config_echo, config_from_dict, parse_config, read_reports, reports_from_csv
from .scores import SCORE_KINDS
from .simulation import TrialReport, monte_carlo, robust_calibrate

_SWEEP_ALIASES = {"km": "k_m", "n": "n_per_client"}
_CSV_HEADER = ("trial,attack,naive_cov,naive_size,rob_cov,rob_size,"
               "km_hat,detect_exact,bound_lo,bound_hi")


class CliUsageError(RobfcpError):
    code = "usage"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


def _certificate_dict(cert: CoverageCertificate) -> dict:
    return {"lower": cert.lower, "upper": cert.upper, "p_byz": cert.p_byz,
            "variant": cert.variant, "vacuous": cert.vacuous}


def _trial_dict(t: TrialReport) -> dict:
    return {
        "trial": t.trial_index,
        "naive": {"coverage": t.naive.marginal_coverage,
                  "avg_set_size": t.naive.average_set_size},
        "robust": {"coverage": t.robust.marginal_coverage,
                   "avg_set_size": t.robust.average_set_size},
        "benign_set": list(t.benign_set),
        "km_hat": t.k_m_hat,
        "q_naive": t.q_naive,
        "q_robust": t.q_robust,
        "detection_exact": t.detection_exact,
        "certificate": _certificate_dict(t.certificate),
    }


def _csv_rows(attack_kind: str, trials) -> list[str]:
    rows = []
    for t in trials:
        rows.append(",".join([
            str(t.trial_index), attack_kind,
            repr(t.naive.marginal_coverage), repr(t.naive.average_set_size),
            repr(t.robust.marginal_coverage), repr(t.robust.average_set_size),
            str(t.k_m_hat), "true" if t.detection_exact else "false",
            repr(t.certificate.lower), repr(t.certificate.upper),
        ]))
    return rows


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text + "\n")
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _parse_sweep(spec: str, aliases: dict | None = None) -> tuple[str, list[int]]:
    """Parse ``key=a:b[:step]`` into (key, inclusive integer values)."""
    if "=" not in spec:
        raise CliUsageError(f"sweep must look like key=a:b[:step], got {spec!r}")
    key, _, rng = spec.partition("=")
    key = key.strip()
    if aliases:
        key = aliases.get(key, key)
    parts = rng.split(":")
    if len(parts) not in (2, 3):
        raise CliUsageError(f"sweep range must be a:b or a:b:step, got {rng!r}")
    try:
        a, b = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
    except ValueError:
        raise CliUsageError(f"sweep bounds must be integers, got {rng!r}") from None
    if step < 1 or b < a:
        raise CliUsageError(f"sweep range must be increasing with step >= 1, got {rng!r}")
    return key, list(range(a, b + 1, step))


# --- simulate ---

def cmd_simulate(args) -> None:
    config = parse_config(args.config)
    echo = config_echo(config)
    csv_blocks: list[tuple[str, tuple]] = []

    if args.sweep:
        key, values = _parse_sweep(args.sweep, _SWEEP_ALIASES)
        if key not in echo:
            raise CliUsageError(f"unknown sweep key {key!r}")
        rows = []
        for value in values:
            # Re-validate from the echo, which turns uniform per-client tuples
            # back into scalars, so a K sweep re-expands them to each K.
            swept = config_from_dict({**echo, key: value})
            result = monte_carlo(swept, max_workers=args.threads)
            rows.append({"value": value, "aggregates": result.aggregates})
            csv_blocks.append((swept.attack.kind, result.trials))
        report = {"config_echo": echo, "sweep": {"key": key, "rows": rows}}
    else:
        result = monte_carlo(config, max_workers=args.threads)
        csv_blocks.append((config.attack.kind, result.trials))
        report = {"config_echo": echo, "aggregates": result.aggregates,
                  "trials": [_trial_dict(t) for t in result.trials]}

    _emit(json.dumps(report, indent=2), args.out)
    if args.csv:
        lines = [_CSV_HEADER]
        for kind, trials in csv_blocks:
            lines.extend(_csv_rows(kind, trials))
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


# --- certify ---

def _build_params(args, nb: int | None = None) -> CertificateParams:
    return CertificateParams(
        alpha=args.alpha, beta=args.beta, num_bins=args.H,
        num_benign=args.kb, num_malicious=args.km,
        min_benign_n=nb if nb is not None else args.nb,
        total_malicious_n=args.nm, sigma=args.sigma, epsilon=args.epsilon)


def _one_certificate(args, nb: int | None = None) -> CoverageCertificate:
    params = _build_params(args, nb)
    if args.variant == "normal":
        return coverage_bounds(params)
    if args.variant == "homogeneous":
        return coverage_bounds(params, homogeneous=True)
    if args.variant == "dkw":
        return coverage_bounds_dkw(params)
    if args.kb_reported is None:
        raise CliUsageError("--variant overestimate requires --kb-reported")
    return overestimate_bounds(params, args.kb_reported)


def cmd_certify(args) -> None:
    if args.sweep:
        key, values = _parse_sweep(args.sweep)
        if key != "nb":
            raise CliUsageError(f"certify sweeps only support nb, got {key!r}")
        lines = ["nb,lower,upper,p_byz,vacuous"]
        for nb in values:
            cert = _one_certificate(args, nb)
            lines.append(",".join([str(nb), repr(cert.lower), repr(cert.upper),
                                   repr(cert.p_byz), "true" if cert.vacuous else "false"]))
        _emit("\n".join(lines), args.out)
        return
    if args.nb is None:
        raise CliUsageError("--nb is required unless --sweep nb=... is given")
    cert = _one_certificate(args)
    _emit(json.dumps(_certificate_dict(cert), indent=2), args.out)


# --- estimate ---

def cmd_estimate(args) -> None:
    reports = read_reports(args.reports)
    estimate = estimate_malicious_count(reports, p=args.p, max_iter=args.max_iter)
    payload = {
        "k_m_hat": estimate.k_m_hat,
        "objective_trace": [[z, t] for z, t in estimate.objective_trace],
        "iterations": estimate.iterations,
        "converged": estimate.converged,
        "cycled": estimate.cycled,
    }
    _emit(json.dumps(payload, indent=2), args.out)


# --- calibrate ---

def cmd_calibrate(args) -> None:
    if (args.reports is None) == (args.csv is None):
        raise CliUsageError("calibrate needs exactly one of --reports or --csv")
    if args.reports is not None:
        reports = read_reports(args.reports)
    else:
        reports = reports_from_csv(args.csv, score_kind=args.score_kind,
                                   num_bins=args.bins, seed=args.seed)
    if (args.kb is None) == (not args.estimate_km):
        raise CliUsageError("calibrate needs exactly one of --kb or --estimate-km")

    k_m = None if args.estimate_km else len(reports) - args.kb
    result = robust_calibrate(reports, args.alpha, k_m, p=args.p)
    payload = {"q_hat": result.robust.q_hat, "benign_set": list(result.selected),
               "k_m_hat": result.k_m_hat}
    _emit(json.dumps(payload, indent=2), args.out)


def build_parser() -> _Parser:
    parser = _Parser(prog="robfcp",
                     description="Byzantine-robust federated conformal calibration")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run Monte-Carlo trials from a config file")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", default=None, help="report JSON path (default: stdout)")
    p_sim.add_argument("--csv", default=None, help="also write flat per-trial CSV here")
    p_sim.add_argument("--sweep", default=None, help="key=a:b[:step] over an integer config key")
    p_sim.add_argument("--threads", type=int, default=None)

    p_cert = sub.add_parser("certify", help="closed-form coverage bounds")
    p_cert.add_argument("--alpha", type=float, required=True)
    p_cert.add_argument("--beta", type=float, required=True)
    p_cert.add_argument("--H", type=int, required=True)
    p_cert.add_argument("--kb", type=int, required=True)
    p_cert.add_argument("--km", type=int, required=True)
    p_cert.add_argument("--nb", type=int, default=None)
    p_cert.add_argument("--nm", type=int, required=True)
    p_cert.add_argument("--sigma", type=float, default=0.0)
    p_cert.add_argument("--epsilon", type=float, default=0.0)
    p_cert.add_argument("--variant", default="normal",
                        choices=("normal", "homogeneous", "dkw", "overestimate"))
    p_cert.add_argument("--kb-reported", type=int, default=None, dest="kb_reported")
    p_cert.add_argument("--sweep", default=None, help="nb=a:b:step emits a CSV over nb")
    p_cert.add_argument("--out", default=None)

    p_est = sub.add_parser("estimate", help="estimate the malicious count from reports")
    p_est.add_argument("--reports", required=True)
    p_est.add_argument("--p", type=int, default=2)
    p_est.add_argument("--max-iter", type=int, default=10, dest="max_iter")
    p_est.add_argument("--out", default=None)

    p_cal = sub.add_parser("calibrate", help="screen reports and compute the threshold")
    p_cal.add_argument("--reports", default=None)
    p_cal.add_argument("--csv", default=None, help="score CSV (client_id,label,p_0,...)")
    p_cal.add_argument("--score-kind", default="lac", choices=SCORE_KINDS, dest="score_kind")
    p_cal.add_argument("--bins", type=int, default=100)
    p_cal.add_argument("--seed", type=int, default=0, help="seed for aps randomization")
    p_cal.add_argument("--alpha", type=float, required=True)
    p_cal.add_argument("--kb", type=int, default=None)
    p_cal.add_argument("--estimate-km", action="store_true", dest="estimate_km")
    p_cal.add_argument("--p", type=int, default=2)
    p_cal.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "simulate":
            cmd_simulate(args)
        elif args.command == "certify":
            cmd_certify(args)
        elif args.command == "estimate":
            cmd_estimate(args)
        else:
            cmd_calibrate(args)
        return 0
    except RobfcpError as exc:
        print(f"ERROR:{exc.code}:{exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"ERROR:io:{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
