"""robfcp benchmark: Monte-Carlo trial throughput, end to end and per layer.

    python3 perfbench/run.py                       # all workloads, untraced
    python3 perfbench/run.py --workload mc_sample --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload mc_direct_k100 --trace 1

Run from the repository root; robfcp is imported from ``src/`` next to this
directory.  Each workload runs in fresh processes (see worker.py): several
set-up probes, then one measuring process.  The report lists every metric by
name and unit; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when a
correctness check fails, 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import BY_NAME, Workload  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
#: Fresh processes timed from start to the first timed trial, per untraced run.
SETUPS = 5
#: Every process of a run must end by then (the contract allows 180 s).
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _start_worker(workload: Workload, seed: int, seconds: float, trace: int, *extra):
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC),
           "--spec", json.dumps(dataclasses.asdict(workload)), "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)


def _finish(proc, deadline: float) -> str:
    """Wait for a worker and return its stdout; kill it at the deadline."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def _timed_start(workload, seed, seconds, trace, deadline, *extra):
    """Start a worker; return it and the seconds from spawn to its READY line."""
    t0 = time.perf_counter()
    proc = _start_worker(workload, seed, seconds, trace, *extra)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not reach READY (got {line.strip()!r})")
    return proc, setup


def run_workload(workload: Workload, seed: int, seconds: float, trace: int,
                 setups: int = SETUPS, out_dir: Path | None = RESULTS) -> dict:
    """Measure one workload; returns the worker's result plus ``setup_s``."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    stem = f"{workload.name}-seed{seed}-trace{trace}"
    extra = []
    if trace and out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        extra = ["--spans", str(out_dir / f"{stem}.spans.jsonl")]
    setup_times = []
    if not trace:
        for _ in range(setups - 1):
            proc, setup = _timed_start(workload, seed, seconds, trace, deadline, "--probe")
            _finish(proc, deadline)
            setup_times.append(setup)
    proc, setup = _timed_start(workload, seed, seconds, trace, deadline, *extra)
    setup_times.append(setup)
    result = json.loads(_finish(proc, deadline).strip().splitlines()[-1])
    if not trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
        result["details"]["setup_samples_s"] = setup_times
    result["correct"] = all(result["checks"].values()) and result["failed"] == 0
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def report(name: str, result: dict) -> None:
    print(f"== {name}: {'correct' if result['correct'] else 'INCORRECT'}, "
          f"{result['failed']} of {result['attempted']} trials failed")
    for metric, m in result["metrics"].items():
        print(f"  {metric:40s} {m['value']:>16.6g} {m['unit']}")
    for check, ok in result["checks"].items():
        print(f"  check {check:34s} {'pass' if ok else 'FAIL'}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    print(f"  details: {json.dumps(result['details'])}")
    print(f"  env: {json.dumps(result['env'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=("all", *BY_NAME))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "robfcp" / "__init__.py").is_file():
        print(f"error: no robfcp sources at {SRC}", file=sys.stderr)
        return 2

    names = list(BY_NAME) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(BY_NAME[name], args.seed, args.seconds, args.trace)
            report(name, results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{m}": v for name, r in results.items() for m, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
