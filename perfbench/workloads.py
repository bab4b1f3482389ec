"""The benchmark's workloads: one fixed robfcp simulation config each.

Every workload is a closed loop: one process runs seeded trials back to back.
The reasons for each choice are in README.md and BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``SimulationConfig`` keyword arguments; ``attack`` holds ``AttackSpec`` kwargs.
    #: ``seed`` and ``trials`` are set by the benchmark, never here.
    params: dict = field(repr=False)
    #: Serial trials/s of the unmodified code on a 2-core x86-64 VM, used only
    #: to size the traced run, which runs a fixed trial count so that its
    #: counts repeat exactly.
    ref_trials_per_s: float


WORKLOADS = (
    Workload(
        name="mc_sample",
        params=dict(K=10, k_m=4, n_per_client=2000, C=10, H=100, alpha=0.1,
                    score_kind="lac", attack={"kind": "coverage"}, km_known=False,
                    n_test=2000, mode="sample"),
        ref_trials_per_s=33.0),
    Workload(
        name="mc_sample_aps",
        params=dict(K=10, k_m=4, n_per_client=2000, C=100, H=100, alpha=0.1,
                    score_kind="aps", attack={"kind": "gaussian", "gaussian_std": 0.5},
                    km_known=True, n_test=2000, mode="sample"),
        ref_trials_per_s=4.5),
    Workload(
        name="mc_direct_k100",
        params=dict(K=100, k_m=20, n_per_client=100000, C=10, H=100, alpha=0.1,
                    score_kind="lac", attack={"kind": "coverage"}, km_known=False,
                    mode="histogram_direct"),
        ref_trials_per_s=1.2),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def config_seed(bench_seed: int) -> int:
    """Map a benchmark seed to the simulation seed.

    ``run_trial`` derives each trial's streams from ``seed ^ trial_index``, so
    seeds that differ only in low bits replay each other's trials.  Moving the
    benchmark seed into the high 32 bits keeps every (seed, trial) pair with
    fewer than 2^32 trials distinct.
    """
    return (int(bench_seed) % 2 ** 32) << 32
