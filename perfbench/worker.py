"""One benchmark process for one workload; started by run.py.

Protocol on stdout: the line ``READY`` once set-up is done (imports, config
construction and one discarded warm-up trial), then, unless ``--probe``, one
JSON line with the measured phases.  Everything else goes to stderr.

Untraced (``--trace 0``): a serial closed loop of trials for part of the time
budget, then the same trials through ``monte_carlo`` with one worker per CPU.
Traced (``--trace 1``): a fixed number of trials untraced, then the same trials
again with layer spans recorded.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stats import tail  # noqa: E402
from spans import LAYERS, Tracer, layer_self_times, outermost_cpu_per_wall  # noqa: E402
from workloads import Workload, config_seed  # noqa: E402

#: Share of ``--seconds`` spent in the serial loop; the parallel reruns take
#: most of the rest.
SERIAL_SHARE = 0.55
#: Serial throughput and CPU time are medians over this many contiguous blocks
#: of trials, and the parallel phase reruns one batch of trials this many times.
BLOCKS = 5
#: Every phase runs at least this many trials: the tail percentile needs more
#: than ten, and the output digest covers exactly this many.
MIN_TRIALS = 12
#: The acceptance gate's band for the mean robust coverage.
ROBUST_BAND = (0.89, 0.92)
#: Variables that set thread counts.  Recorded, never set.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "ROBFCP_THREADS")

#: Per-layer count metrics, reported per trial.
COUNT_METRICS = (
    ("simulation.generate_client_data.rows", "count"),
    ("scores.rows", "count"),
    ("scores.label_cells", "count"),
    ("count_estimator.scan_iterations", "count"),
    ("count_estimator.objective_T.calls", "count"),
    ("detection.pairwise_distances.calls", "count"),
    ("detection.pairwise_bytes", "B"),
    ("calibration.aggregate.calls", "count"),
    ("sketch.reconstruct_counts.calls", "count"),
)


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def environment() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": nproc(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "thread_env": {v: os.environ.get(v, "unset") for v in THREAD_VARS}}


def canonical(report) -> str:
    """Exact text form of one trial's outputs (floats by repr); "null" if it raised."""
    if report is None:
        return "null"
    return json.dumps(dataclasses.asdict(report), sort_keys=True)


def digest(records) -> str:
    return hashlib.sha256("\n".join(records[:MIN_TRIALS]).encode()).hexdigest()


def trial_problems(report, config, edges) -> list[str]:
    """Per-trial invariants; an empty list means the trial passed."""
    if report is None:
        return ["raised"]
    problems = []
    for name in ("q_naive", "q_robust"):
        q = getattr(report, name)
        if not (0.0 < q <= 1.0 and q in edges[1:]):
            problems.append(f"{name}={q!r} is not an upper bin edge in (0, 1]")
    if len(report.benign_set) != config.K - report.k_m_hat:
        problems.append(f"|benign_set|={len(report.benign_set)} != K - k_m_hat")
    if not 0 <= report.k_m_hat < config.K / 2:
        problems.append(f"k_m_hat={report.k_m_hat} outside [0, K/2)")
    for name in ("naive", "robust"):
        cov = getattr(report, name).marginal_coverage
        if not 0.0 <= cov <= 1.0:
            problems.append(f"{name} coverage {cov!r} outside [0, 1]")
    if not report.certificate.lower <= report.certificate.upper:
        problems.append("certificate lower > upper")
    return [f"trial {getattr(report, 'trial_index', '?')}: {p}" for p in problems]


@dataclasses.dataclass
class Phase:
    reports: list
    times: list  # wall seconds per trial
    cpus: list   # process CPU seconds per trial
    wall: float

    @property
    def records(self) -> list[str]:
        return [canonical(r) for r in self.reports]


def serial_phase(simulation, config, min_trials: int, budget_s: float, tracer=None) -> Phase:
    """Trials 0, 1, ... back to back until both the count and the budget are met."""
    reports, times, cpus = [], [], []
    wall0 = time.perf_counter()
    while len(reports) < min_trials or time.perf_counter() - wall0 < budget_s:
        index = len(reports)
        if tracer is not None:
            tracer.trial = index
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            report = simulation.run_trial(config, index)
        except Exception:  # a failed trial is counted, and the loop goes on
            traceback.print_exc(file=sys.stderr)
            report = None
        times.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        reports.append(report)
    return Phase(reports, times, cpus, time.perf_counter() - wall0)


def blocks(values, count: int = BLOCKS) -> list[list]:
    """``values`` cut into ``count`` contiguous runs of near-equal length."""
    n = len(values)
    return [values[n * b // count: n * (b + 1) // count] for b in range(count)]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced_run(simulation, config, seconds: float) -> dict:
    serial = serial_phase(simulation, config, MIN_TRIALS, SERIAL_SHARE * seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(serial.reports)

    # The parallel phase reruns one batch of the first trials BLOCKS times and
    # reports the best batch.  With threaded BLAS, batches on 2 cores are
    # bimodal: on mc_direct_k100 about 2.1 trials/s, or about 1.1 in episodes
    # that hit half or more of the batches.  Every batch rate is recorded.
    # At least two whole rounds per worker keep a batch balanced.
    workers = nproc()
    batch = workers * max(2, round(n / (BLOCKS * workers)))
    batch_config = dataclasses.replace(config, trials=batch)
    batch_rates, par_records, same_aggregates = [], [], True
    for _ in range(BLOCKS):
        t0 = time.perf_counter()
        try:
            par = simulation.monte_carlo(batch_config, max_workers=workers)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            par = None
        batch_rates.append(batch / (time.perf_counter() - t0))
        if par is None:
            par_records += ["raised"] * batch
            same_aggregates = False
            continue
        par_records += [canonical(r) for r in par.trials]
        same_aggregates &= (None not in serial.reports[:batch]
                            and par.aggregates == simulation.summarize(serial.reports[:batch]))
    expected = serial.records[:batch] * BLOCKS

    trial_tail = tail(serial.times)
    return {
        "serial": serial,
        "attempted": n + batch * BLOCKS,
        "rerun_failed": sum(a != b for a, b in zip(par_records, expected)),
        "checks": {"parallel_trials_match_serial": par_records == expected,
                   "parallel_aggregates_match_serial": same_aggregates},
        "metrics": {
            "trials_per_s": metric(statistics.median(
                len(b) / sum(b) for b in blocks(serial.times)), "1/s"),
            "trials_per_s_par": metric(max(batch_rates), "1/s"),
            "trial_ms_p50": metric(1000.0 * statistics.median(serial.times), "ms"),
            "trial_ms_tail": metric(1000.0 * trial_tail["value"], "ms"),
            "cpu_ms_per_trial": metric(statistics.median(
                1000.0 * sum(b) / len(b) for b in blocks(serial.cpus)), "ms"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        },
        "details": {"trials": n, "tail": {k: v for k, v in trial_tail.items() if k != "value"},
                    "serial_wall_s": serial.wall, "par_batch_trials": batch,
                    "par_batch_rates": batch_rates, "par_workers_requested": workers,
                    "par_workers_used": simulation.resolve_workers(workers)},
    }


def traced_run(simulation, config, workload: Workload, seconds: float, spans_path) -> dict:
    n = max(MIN_TRIALS, math.ceil(workload.ref_trials_per_s * seconds / 2))
    plain = serial_phase(simulation, config, n, 0.0)
    tracer = Tracer()
    with tracer.installed():
        traced = serial_phase(simulation, config, n, 0.0, tracer)
    if spans_path:
        tracer.write_spans(spans_path)

    records, traced_records = plain.records, traced.records
    self_ns = layer_self_times(tracer.spans)
    traced_trial_ns = 1e9 * sum(traced.times)
    metrics = {f"{layer}.self_ms": metric(self_ns[layer] / n / 1e6, "ms") for layer in LAYERS}
    metrics.update({name: metric(tracer.counts[name] / n, unit) for name, unit in COUNT_METRICS})
    metrics["count_estimator.cpu_per_wall"] = metric(
        outermost_cpu_per_wall(tracer.spans, "count_estimator"), "ratio")
    metrics["trace_overhead"] = metric(plain.wall / traced.wall, "ratio")
    metrics["traced.accounted_share"] = metric(sum(self_ns.values()) / traced_trial_ns, "ratio")
    return {
        "serial": plain,
        "attempted": 2 * n,
        "rerun_failed": sum(a != b for a, b in zip(traced_records, records)),
        "checks": {"traced_trials_match_untraced": traced_records == records},
        "metrics": metrics,
        "details": {"trials": n, "spans": len(tracer.spans),
                    "traced_trial_ms_mean": traced_trial_ns / n / 1e6},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", required=True, help="directory holding the robfcp package")
    parser.add_argument("--spec", required=True, help="workload as JSON (Workload fields)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="exit after set-up")
    parser.add_argument("--spans", help="file for the traced run's spans (JSON lines)")
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    import robfcp
    import robfcp.simulation as simulation
    from robfcp.attacks import AttackSpec
    from robfcp.sketch import uniform_bin_edges

    if not Path(robfcp.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        print(f"robfcp imported from {robfcp.__file__}, not from {args.src}", file=sys.stderr)
        return 2
    workload = Workload(**json.loads(args.spec))
    params = dict(workload.params)
    params["attack"] = AttackSpec(**params["attack"])
    config = simulation.SimulationConfig(**params, seed=config_seed(args.seed))
    simulation.run_trial(config, 0)  # warm-up, discarded
    print("READY", flush=True)
    if args.probe:
        return 0

    if args.trace:
        run = traced_run(simulation, config, workload, args.seconds, args.spans)
    else:
        run = untraced_run(simulation, config, args.seconds)
    serial = run["serial"]
    edges = uniform_bin_edges(config.H)
    per_trial = [trial_problems(r, config, edges) for r in serial.reports]
    problems = [p for trial in per_trial for p in trial]
    covs = [r.robust.marginal_coverage for r in serial.reports if r is not None]
    rob_cov = statistics.fmean(covs) if covs else float("nan")
    checks = {"per_trial": not problems,
              "rob_cov_in_band": ROBUST_BAND[0] <= rob_cov <= ROBUST_BAND[1], **run["checks"]}
    out = {
        "attempted": run["attempted"],
        "failed": sum(map(bool, per_trial)) + run["rerun_failed"],
        "checks": checks,
        "problems": problems[:10],
        "metrics": run["metrics"],
        "details": {**run["details"], "rob_cov_mean": rob_cov, "config_seed": config.seed,
                    "digest": {"sha256": digest(serial.records), "trials": MIN_TRIALS}},
        "env": environment(),
    }
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
