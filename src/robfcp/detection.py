"""Nearest-neighbour screening of client reports.

Benign clients sketch samples from similar score distributions, so their
characterization vectors cluster; forged vectors sit away from that cluster.
Each client gets a *maliciousness score*: the average distance to its
``k_b - 1`` nearest other reports.  With at least ``k_b`` benign clients, a
benign report has ``k_b - 1`` honest neighbours keeping its score low, while a
forged report must reach across to the cluster.  The ``k_b`` lowest-scoring
clients form the benign set.  Distances are l_p norms with integer p >= 1,
the values config ``p_norm`` and the CLI's ``--p`` take.

Rankings refer to clients by their row in the report list; mapping rows to
client ids is the caller's job (see ``simulation.robust_calibrate``).
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, _integer
from .sketch import ClientReport, shared_edges


def as_vector_matrix(reports) -> np.ndarray:
    """Stack reports (or raw vectors) into a (K, H) float matrix of finite entries.

    Accepts a list of :class:`ClientReport` with identical edges (compared by
    identity first), a list of 1-d arrays, or an already-stacked 2-d array
    (uncopied if float).  A NaN or infinite entry is an :class:`InputError`
    here rather than a NaN distance or objective further down.
    """
    if isinstance(reports, np.ndarray) and reports.ndim == 2:
        x = np.asarray(reports, dtype=float)
    else:
        items = list(reports)
        if not items:
            raise InputError("need at least one report")
        if isinstance(items[0], ClientReport):
            shared_edges(items)
            x = np.stack([r.v for r in items])
        else:
            x = np.stack([np.asarray(v, dtype=float) for v in items])
    if not np.isfinite(x).all():
        raise InputError("report vectors must be finite (found NaN or inf)")
    return x


def pairwise_distances(reports, p=2) -> np.ndarray:
    """Symmetric (K, K) l_p distances between all report vectors, for integer p >= 1.

    Rows of the upper triangle are swept one at a time: O(K*H) memory, no
    (K, K, H) difference tensor.  Each pair reduces over H exactly as the
    broadcast formula ``(|v_i - v_j|**p).sum() ** (1/p)`` does, so values are
    bit-identical to it; the lower triangle mirrors the upper one.
    """
    p = _integer("norm order", p, 1)
    vectors = as_vector_matrix(reports)
    k = vectors.shape[0]
    if k < 2:
        raise InputError("need at least 2 reports for pairwise distances")
    d = np.zeros((k, k))
    for i in range(k - 1):
        row = vectors[i + 1:] - vectors[i]
        if p != 2:  # squaring is sign-exact; numpy's SIMD pow for even p > 2 is not
            np.abs(row, out=row)
        row **= p
        dist = row.sum(axis=1) ** (1.0 / p)
        d[i, i + 1:] = dist
        d[i + 1:, i] = dist
    return d


def maliciousness_scores(d: np.ndarray, k_b: int) -> np.ndarray:
    """Average distance to each client's k_b - 1 nearest others in the distance matrix ``d``."""
    k = d.shape[0]
    k_b = _integer("k_b", k_b, 2, k + 1)
    off = d[~np.eye(k, dtype=bool)].reshape(k, k - 1)
    part = np.partition(off, k_b - 2, axis=1)[:, : k_b - 1]
    return part.mean(axis=1)


def rank_reports(reports, k_b: int, p=2) -> tuple[int, ...]:
    """Rows of the ``k_b`` lowest maliciousness scores, ascending; ties go to the lowest row."""
    scores = maliciousness_scores(pairwise_distances(reports, p=p), k_b)
    return tuple(sorted(int(i) for i in np.argsort(scores, kind="stable")[:k_b]))
