"""Golden gate: `robfcp simulate` output must stay byte-identical.

Each case runs the CLI on ``golden/<case>.config.json`` and compares the JSON
report and the per-trial CSV with ``golden/<case>.report.json`` and
``golden/<case>.trials.csv`` byte for byte.  The cases cover every attack,
both modes, lac and aps, a known and an estimated malicious count, and the
``--sweep`` path.  Each case runs in-process (``--threads 1``) and through the
worker pool (``--threads 2``) against the same files; recording uses
``--threads 1``.  A change that moves a simulated number on purpose re-records
the files and says why:

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from robfcp.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

#: case name -> ``--sweep`` argument (None: a plain run).
CASES = {
    "sample_coverage_lac_unknown": None,
    "sample_efficiency_aps_known": None,
    "sample_gaussian_aps_unknown": None,
    "sample_mimic_lac_known": None,
    "sample_coverage_lac_known_sweep": "km=0:2",
    "direct_none_unknown": None,
    "direct_efficiency_unknown": None,
    "direct_gaussian_known_sweep": "n=1000:3000:1000",
}


def _simulate(case: str, out_dir: Path, threads: int = 1) -> tuple[Path, Path]:
    report, trials = out_dir / f"{case}.report.json", out_dir / f"{case}.trials.csv"
    argv = ["simulate", "--config", str(GOLDEN / f"{case}.config.json"),
            "--out", str(report), "--csv", str(trials), "--threads", str(threads)]
    if CASES[case] is not None:
        argv += ["--sweep", CASES[case]]
    if main(argv) != 0:
        raise RuntimeError(f"simulate failed on golden case {case}")
    return report, trials


@pytest.mark.parametrize("case, threads", [
    pytest.param(case, threads, id=case if threads == 1 else f"{case}-threads{threads}")
    for threads in (1, 2) for case in sorted(CASES)])
def test_simulate_output_is_byte_identical(case, threads, tmp_path):
    for produced in _simulate(case, tmp_path, threads):
        assert produced.read_bytes() == (GOLDEN / produced.name).read_bytes(), produced.name


if __name__ == "__main__":
    for name in sorted(CASES):
        _simulate(name, GOLDEN)
        print(f"recorded {name}")
