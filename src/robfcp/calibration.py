"""The server's federated quantile calibration over aggregated histogram sketches.

Selected client reports are reconstructed to integer bin counts and summed.
The calibration threshold is the score at pooled rank ceil((1-alpha)(N + K)),
where N is the pooled sample count and K the number of contributing clients;
the +K inflation pays for taking a quantile across clients rather than within
one.  Because only bin membership of that rank is known, the threshold is
rounded up to the containing bin's upper edge — never below the exact
empirical quantile, and at most one bin width above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, _real
from .sketch import shared_edges

# Tolerance absorbed by rank arithmetic so float noise in (1-alpha)*(N+K)
# cannot push ceil() over an exact integer boundary.
_RANK_EPS = 1e-9


@dataclass(frozen=True, eq=False)
class AggregateHistogram:
    """Summed integer bin counts over a selected set of clients."""

    counts: np.ndarray
    total_n: int
    num_clients: int
    edges: np.ndarray


def aggregate(reports, selected=None) -> AggregateHistogram:
    """Sum the cached :attr:`ClientReport.counts` over ``selected`` client ids (default: all)."""
    reports = list(reports)
    if not reports:
        raise InputError("need at least one report to aggregate")
    by_id = {r.client_id: r for r in reports}
    if len(by_id) != len(reports):
        raise InputError("duplicate client ids in reports")
    if selected is None:
        chosen = reports
    else:
        selected = list(selected)
        if not selected:
            raise InputError("selected client set must be non-empty")
        if len(set(selected)) != len(selected):
            raise InputError("duplicate ids in the selected set")
        missing = [i for i in selected if i not in by_id]
        if missing:
            raise InputError(f"selected ids not present in reports: {missing}")
        chosen = [by_id[i] for i in selected]
    edges = shared_edges(chosen)
    counts = np.add.reduce([r.counts for r in chosen])
    return AggregateHistogram(counts=counts, total_n=int(counts.sum()),
                              num_clients=len(chosen), edges=edges)


@dataclass(frozen=True)
class QuantileEstimate:
    """Calibrated threshold plus the rank and bin that produced it."""

    q_hat: float
    target_rank: int
    bin_index: int
    alpha: float


def federated_quantile(agg: AggregateHistogram, alpha: float) -> QuantileEstimate:
    """Threshold at pooled rank ceil((1-alpha)(N + K)), rounded up to a bin edge.

    ``alpha`` must be admissible, i.e. alpha >= 1/(N/K + 1); below that the
    +K rank inflation would ask for an order statistic beyond the sample.
    """
    alpha = _real("alpha", alpha, 0.0, 1.0)
    n, k = agg.total_n, agg.num_clients
    if alpha * (n + k) < k - _RANK_EPS:
        raise InputError(
            f"alpha={alpha} below admissibility floor {k / (n + k):.6g} "
            f"for {n} samples across {k} clients")
    target_rank = math.ceil((1.0 - alpha) * (n + k) - _RANK_EPS)
    # Admissibility keeps the rank within the pooled sample up to float noise;
    # capping at N maps any residual overshoot to the maximal pooled score.
    cumulative = np.cumsum(agg.counts)
    bin_index = int(np.searchsorted(cumulative, min(target_rank, n), side="left"))
    return QuantileEstimate(q_hat=float(agg.edges[bin_index + 1]), target_rank=int(target_rank),
                            bin_index=bin_index, alpha=alpha)
