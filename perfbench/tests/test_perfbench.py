"""Tests of the benchmark itself: span arithmetic, the tail rule, and a smoke run.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from spans import Span, Tracer, layer_self_times, outermost_cpu_per_wall, self_times  # noqa: E402
from stats import tail  # noqa: E402
from workloads import BY_NAME, config_seed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _span(id, parent, layer, t0, t1, cpu0=0, cpu1=0):
    return Span(id, parent, 0, layer, f"f{id}", t0, t1, cpu0, cpu1)


def test_self_time_with_nested_and_overlapping_children():
    spans = [
        _span(0, None, "simulation", 0, 100),
        _span(1, 0, "detection", 10, 40),         # overlaps span 2
        _span(2, 0, "count_estimator", 30, 60),
        _span(3, 1, "detection", 15, 20),         # nested in span 1
        _span(4, 0, "certify", 90, 120),          # runs past its parent's end
    ]
    # root: 100 minus the union [10, 60] + [90, 100] = 40
    assert self_times(spans) == {0: 40, 1: 25, 2: 30, 3: 5, 4: 30}
    totals = layer_self_times(spans)
    assert totals["simulation"] == 40
    assert totals["detection"] == 30
    assert totals["count_estimator"] == 30
    assert totals["certify"] == 30
    assert totals["scores"] == 0


def test_cpu_per_wall_counts_outermost_spans_once():
    spans = [
        _span(0, None, "simulation", 0, 100, 0, 100),
        _span(1, 0, "count_estimator", 10, 50, 10, 90),
        _span(2, 1, "count_estimator", 20, 30, 20, 40),  # inside span 1: not recounted
        _span(3, 1, "detection", 30, 40, 40, 60),
    ]
    assert outermost_cpu_per_wall(spans, "count_estimator") == pytest.approx(2.0)
    assert outermost_cpu_per_wall(spans, "certify") == 0.0


@pytest.mark.parametrize("n, value, percentile", [
    (100, 90, 90.0),
    (11, 1, 100.0 / 11),
    (25, 15, 60.0),
])
def test_tail_leaves_ten_samples_beyond(n, value, percentile):
    values = list(range(n, 0, -1))  # unsorted input
    t = tail(values)
    assert t["value"] == value
    assert t["percentile"] == pytest.approx(percentile)
    assert t["beyond"] == 10 and t["samples"] == n
    assert sum(v > t["value"] for v in values) == 10


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail(range(10))


def test_config_seed_separates_low_bits():
    assert config_seed(1) ^ 0 != config_seed(0) ^ 1
    assert config_seed(3) >> 32 == 3 and config_seed(3) % 2 ** 32 == 0


def test_tracer_accounts_for_trial_and_restores_functions():
    import robfcp.count_estimator as count_estimator
    import robfcp.simulation as simulation
    from robfcp.attacks import AttackSpec

    originals = (simulation.rank_reports, simulation.run_trial,
                 count_estimator.pairwise_distances, count_estimator.objective_T)
    config = simulation.SimulationConfig(K=6, k_m=2, n_per_client=200, C=4, H=20,
                                         attack=AttackSpec(kind="coverage"), km_known=False,
                                         n_test=100)
    plain = simulation.run_trial(config, 0)
    tracer = Tracer()
    with tracer.installed():
        assert simulation.rank_reports is not originals[0]
        traced = simulation.run_trial(config, 0)
    assert (simulation.rank_reports, simulation.run_trial,
            count_estimator.pairwise_distances, count_estimator.objective_T) == originals
    assert traced == plain

    root = tracer.spans[0]
    assert (root.layer, root.name, root.parent) == ("simulation", "run_trial", None)
    assert all(s.parent is not None for s in tracer.spans[1:])
    assert sum(layer_self_times(tracer.spans).values()) == root.t1 - root.t0
    assert tracer.counts["detection.pairwise_distances.calls"] == 3
    assert tracer.counts["count_estimator.objective_T.calls"] > 0


def test_run_without_sources_fails_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "mc_sample", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


_TINY = {
    "mc_sample": dict(K=6, k_m=2, n_per_client=300, C=5, H=20, n_test=200),
    "mc_sample_aps": dict(K=6, k_m=2, n_per_client=300, C=8, H=20, n_test=200),
    "mc_direct_k100": dict(K=8, k_m=2, n_per_client=1000, H=20),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(_TINY))
def test_smoke_tiny_workload_reports_every_metric(name, trace, tmp_path):
    real = BY_NAME[name]
    tiny = dataclasses.replace(real, params={**real.params, **_TINY[name]})
    result = run.run_workload(tiny, seed=5, seconds=0, trace=trace, setups=2, out_dir=tmp_path)

    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert result["attempted"] >= 24 and result["failed"] == 0
    checks = dict(result["checks"])
    checks.pop("rob_cov_in_band")  # a tiny federation is not the gate's config
    assert all(checks.values()), checks
    assert (tmp_path / f"{name}-seed5-trace{trace}.json").is_file()
    if trace:
        assert (tmp_path / f"{name}-seed5-trace1.spans.jsonl").is_file()
    else:
        assert len(result["details"]["setup_samples_s"]) == 2
