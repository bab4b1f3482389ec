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
from dataclasses import asdict

from .certify import (CertificateParams, CoverageCertificate, coverage_bounds,
                      coverage_bounds_dkw, overestimate_bounds)
from .count_estimator import estimate_malicious_count
from .errors import RobfcpError, _integer
from .io import config_echo, config_from_dict, parse_config, read_reports, reports_from_csv
from .scores import SCORE_KINDS
from .simulation import TrialReport, monte_carlo, robust_calibrate, trial_columns

_SWEEP_ALIASES = {"km": "k_m", "n": "n_per_client"}


class CliUsageError(RobfcpError):
    code = "usage"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


def _certificate_dict(cert: CoverageCertificate) -> dict:
    return {**asdict(cert), "vacuous": cert.vacuous}


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


def _csv_cell(value) -> str:
    """A bool as ``true``/``false``, anything else as its repr: floats round-trip."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value)


def _reject_unread(flags: dict, mode: str) -> None:
    """A flag the mode does not read is an error, not a silent no-op."""
    for flag, value in flags.items():
        if value is not None:
            raise CliUsageError(f"{flag} goes with {mode}, and only with it")


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
    if args.threads is not None:
        _integer("--threads", args.threads, 1)
    config = parse_config(args.config)
    echo = config_echo(config)
    csv_rows: list[TrialReport] = []

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
            csv_rows += result.trials
        report = {"config_echo": echo, "sweep": {"key": key, "rows": rows}}
    else:
        result = monte_carlo(config, max_workers=args.threads)
        csv_rows += result.trials
        report = {"config_echo": echo, "aggregates": result.aggregates,
                  "trials": [_trial_dict(t) for t in result.trials]}

    _emit(json.dumps(report, indent=2), args.out)
    if args.csv:
        lines = [",".join(["trial", "attack", *trial_columns(csv_rows[0])])]
        # A sweep value is an integer, never an attack, so every row has the config's kind.
        lines += [",".join([str(t.trial_index), config.attack.kind,
                            *map(_csv_cell, trial_columns(t).values())]) for t in csv_rows]
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


# --- certify ---

def _one_certificate(args, nb: int) -> CoverageCertificate:
    # --km, --nm and --sigma are None only for overestimate, which reads none of them.
    params = CertificateParams(
        alpha=args.alpha, beta=args.beta, num_bins=args.H, num_benign=args.kb,
        num_malicious=args.km or 0, min_benign_n=nb, total_malicious_n=args.nm or 0,
        sigma=args.sigma or 0.0, epsilon=args.epsilon)
    if args.variant == "normal":
        return coverage_bounds(params)
    if args.variant == "dkw":
        return coverage_bounds_dkw(params)
    return overestimate_bounds(params, args.kb_reported)


def cmd_certify(args) -> None:
    if (args.variant == "overestimate") != (args.kb_reported is not None):
        raise CliUsageError("--kb-reported goes with --variant overestimate, and only with it")
    if args.variant == "overestimate":
        _reject_unread({"--km": args.km, "--nm": args.nm, "--sigma": args.sigma},
                       "--variant normal or dkw")
    elif args.km is None or args.nm is None:
        raise CliUsageError(f"--variant {args.variant} needs --km and --nm")
    if (args.nb is None) == (args.sweep is None):
        raise CliUsageError("certify needs exactly one of --nb or --sweep nb=...")
    if args.sweep is not None:
        key, values = _parse_sweep(args.sweep)
        if key != "nb":
            raise CliUsageError(f"certify sweeps only support nb, got {key!r}")
        lines = ["nb,lower,upper,p_byz,vacuous"]
        for nb in values:
            cert = _one_certificate(args, nb)
            lines.append(",".join(map(_csv_cell, (nb, cert.lower, cert.upper, cert.p_byz,
                                                  cert.vacuous))))
        _emit("\n".join(lines), args.out)
        return
    cert = _one_certificate(args, args.nb)
    _emit(json.dumps(_certificate_dict(cert), indent=2), args.out)


# --- estimate ---

def cmd_estimate(args) -> None:
    reports = read_reports(args.reports)
    payload = asdict(estimate_malicious_count(reports, p=args.p))
    del payload["k_b_hat"]  # every other field, in order; the trace's pairs print as lists
    _emit(json.dumps(payload, indent=2), args.out)


# --- calibrate ---

def cmd_calibrate(args) -> None:
    if (args.reports is None) == (args.csv is None):
        raise CliUsageError("calibrate needs exactly one of --reports or --csv")
    if args.reports is not None:
        _reject_unread({"--score-kind": args.score_kind, "--bins": args.bins,
                        "--seed": args.seed}, "--csv")
        reports = read_reports(args.reports)
    else:
        given = {"score_kind": args.score_kind, "num_bins": args.bins, "seed": args.seed}
        reports = reports_from_csv(args.csv, **{k: v for k, v in given.items() if v is not None})
    if (args.kb is None) == (not args.estimate_km):
        raise CliUsageError("calibrate needs exactly one of --kb or --estimate-km")

    k_m = None
    if not args.estimate_km and len(reports) >= 2:  # else robust_calibrate rejects the count
        k_m = len(reports) - _integer("--kb", args.kb, 2, len(reports) + 1)
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
    p_sim.add_argument("--threads", type=int, default=None,
                       help="worker processes for the trials (default: up to 4 cpus)")

    p_cert = sub.add_parser("certify", help="closed-form coverage bounds")
    p_cert.add_argument("--alpha", type=float, required=True)
    p_cert.add_argument("--beta", type=float, required=True)
    p_cert.add_argument("--H", type=int, required=True)
    p_cert.add_argument("--kb", type=int, required=True)
    p_cert.add_argument("--km", type=int, default=None)
    p_cert.add_argument("--nb", type=int, default=None)
    p_cert.add_argument("--nm", type=int, default=None)
    p_cert.add_argument("--sigma", type=float, default=None, help="normal and dkw (default: 0)")
    p_cert.add_argument("--epsilon", type=float, default=0.0)
    p_cert.add_argument("--variant", default="normal",
                        choices=("normal", "dkw", "overestimate"))
    p_cert.add_argument("--kb-reported", type=int, default=None, dest="kb_reported")
    p_cert.add_argument("--sweep", default=None, help="nb=a:b:step emits a CSV over nb")
    p_cert.add_argument("--out", default=None)

    p_est = sub.add_parser("estimate", help="estimate the malicious count from reports")
    p_est.add_argument("--reports", required=True)
    p_est.add_argument("--p", type=int, default=2)
    p_est.add_argument("--out", default=None)

    p_cal = sub.add_parser("calibrate", help="screen reports and compute the threshold")
    p_cal.add_argument("--reports", default=None)
    p_cal.add_argument("--csv", default=None, help="score CSV (client_id,label,p_0,...)")
    p_cal.add_argument("--score-kind", choices=SCORE_KINDS, dest="score_kind",
                       help="--csv only (default: lac)")
    p_cal.add_argument("--bins", type=int, help="--csv only (default: 100)")
    p_cal.add_argument("--seed", type=int, help="--csv only: aps randomization seed (default: 0)")
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
        {"simulate": cmd_simulate, "certify": cmd_certify, "estimate": cmd_estimate,
         "calibrate": cmd_calibrate}[args.command](args)
        return 0
    except RobfcpError as exc:
        print(f"ERROR:{exc.code}:{exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"ERROR:io:{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
