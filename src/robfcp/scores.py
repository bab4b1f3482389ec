"""Nonconformity scores for probabilistic classifiers.

Two score families are provided, both mapping a predicted class-probability
vector and a candidate label to a value in [0, 1]:

* ``lac``: one minus the probability of the candidate label.  Low scores mean
  the classifier is confident in that label.
* ``aps``: the cumulated probability mass of all labels ranked strictly above
  the candidate, plus a randomized fraction ``u`` of the candidate's own mass.

Scores are computed over a batch of (N, C) probability rows: true-label
scores by :func:`lac_scores` and :func:`aps_scores`, every candidate label by
:func:`label_score_matrix`.  :func:`score_batch` is the one place that picks
the kernel for a score kind and draws ``u`` for ``aps``.

Tie rule: labels with equal probability are not ranked above each other, so
each gets only the mass strictly greater than its own.  :func:`aps_scores`
is O(N·C), reduced over blocks of rows; the ``aps`` label matrix is
O(N·C log C), one sort and prefix sum per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

# Probability vectors must sum to one within this absolute tolerance.
PROB_ATOL = 1e-9

SCORE_KINDS = ("lac", "aps")

#: Rows per block in :func:`aps_scores`, so each block's mask and product stay in cache.
APS_BLOCK_ROWS = 256


def validate_probabilities(probs: np.ndarray) -> np.ndarray:
    """Validate an (N, C) probability matrix and return it as float64."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 2:
        raise InputError(f"probabilities must be an (N, C) matrix, got ndim={p.ndim}")
    if p.shape[1] < 2:
        raise InputError(f"need at least 2 classes, got {p.shape[1]}")
    if not np.all(np.isfinite(p)):
        raise InputError("probabilities must be finite")
    if p.size and (p.min() < 0.0 or p.max() > 1.0):
        raise InputError("probabilities must lie in [0, 1]")
    sums = p.sum(axis=1)
    if sums.size and np.max(np.abs(sums - 1.0)) > PROB_ATOL:
        raise InputError("probability rows must sum to 1 within 1e-9")
    return p


def _validate_labels(labels: np.ndarray, num_classes: int) -> np.ndarray:
    y = np.asarray(labels)
    if not np.issubdtype(y.dtype, np.integer):
        if not np.all(y == np.floor(y)):
            raise InputError("labels must be integers")
        y = y.astype(int)
    if y.size and (y.min() < 0 or y.max() >= num_classes):
        raise InputError(f"labels must lie in [0, {num_classes - 1}]")
    return y.astype(int)


def lac_scores(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Vectorized ``lac`` scores for a batch of (row, label) pairs."""
    p = validate_probabilities(probs)
    y = _validate_labels(labels, p.shape[1])
    return 1.0 - p[np.arange(p.shape[0]), y]


def aps_scores(probs: np.ndarray, labels: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Vectorized ``aps`` scores; ``u`` holds one randomization draw per row."""
    p = validate_probabilities(probs)
    y = _validate_labels(labels, p.shape[1])
    u = np.asarray(u, dtype=float)
    if u.shape != (p.shape[0],):
        raise InputError("u must have one entry per row")
    if u.size and (u.min() < 0.0 or u.max() > 1.0):
        raise InputError("randomization u must lie in [0, 1]")
    py = p[np.arange(p.shape[0]), y]
    above = np.empty(p.shape[0])
    for start in range(0, p.shape[0], APS_BLOCK_ROWS):
        rows = slice(start, start + APS_BLOCK_ROWS)
        block = p[rows]
        (block * (block > py[rows, None])).sum(axis=1, out=above[rows])
    return above + py * u


def label_score_matrix(probs: np.ndarray, kind: str = "lac",
                       u: np.ndarray | None = None) -> np.ndarray:
    """Per-label score matrix: entry (i, y) is the score of candidate label y on row i.

    For ``aps`` the same draw ``u[i]`` is shared by every candidate label of
    row i, which keeps prediction sets nested in the quantile threshold.  The
    mass above each label is an exclusive prefix sum over the row sorted by
    descending probability: O(N·C log C) time and O(N·C) memory.  Tie rule:
    labels with equal probability all get the mass strictly greater than
    theirs, the prefix sum at the start of their tie group, so the order in
    which the sort places tied labels does not change any score.  The prefix
    sum adds in rank order, so a score may differ in the last few ulp from a
    sum of the same masses taken in label order.
    """
    p = validate_probabilities(probs)
    if kind == "lac":
        return 1.0 - p
    if kind != "aps":
        raise InputError(f"unknown score kind {kind!r}, expected one of {SCORE_KINDS}")
    if u is None:
        raise InputError("aps label scores require a u draw per row")
    u = np.asarray(u, dtype=float)
    if u.shape != (p.shape[0],):
        raise InputError("u must have one entry per row")
    order = np.argsort(p, axis=1)[:, ::-1]
    ranked = np.take_along_axis(p, order, axis=1)
    # exclusive[i, j] = mass of the first j labels of row i in rank order
    exclusive = np.zeros_like(ranked)
    np.cumsum(ranked[:, :-1], axis=1, out=exclusive[:, 1:])
    # Rank of the first label of each tie group, carried forward over the group.
    group_start = np.zeros(p.shape, dtype=np.intp)
    group_start[:, 1:] = np.where(ranked[:, 1:] != ranked[:, :-1], np.arange(1, p.shape[1]), 0)
    np.maximum.accumulate(group_start, axis=1, out=group_start)
    above = np.empty_like(p)
    np.put_along_axis(above, order, np.take_along_axis(exclusive, group_start, axis=1), axis=1)
    above += p * u[:, None]
    return above


def score_batch(probs: np.ndarray, labels: np.ndarray, kind: str, rng: np.random.Generator,
                per_label: bool = False) -> np.ndarray:
    """Scores of a batch of rows: true-label scores, or with ``per_label`` the (N, C) matrix.

    ``aps`` takes one randomization draw ``u`` per row from ``rng``; ``lac``
    draws nothing, so ``rng`` is left untouched.
    """
    if kind not in SCORE_KINDS:
        raise InputError(f"unknown score kind {kind!r}, expected one of {SCORE_KINDS}")
    u = rng.uniform(size=len(labels)) if kind == "aps" else None
    if per_label:
        return label_score_matrix(probs, kind, u)
    if u is None:
        return lac_scores(probs, labels)
    return aps_scores(probs, labels, u)


@dataclass(frozen=True)
class TestBatch:
    """Evaluation rows: per-label score matrix plus the true labels."""

    __test__ = False  # "Test" refers to held-out data, not pytest

    label_scores: np.ndarray  # (N, C)
    labels: np.ndarray        # (N,)

    def __post_init__(self):
        s = np.asarray(self.label_scores, dtype=float)
        if s.ndim != 2 or s.shape[1] < 2:
            raise InputError("label_scores must be an (N, C) matrix with C >= 2")
        if s.size and (not np.all(np.isfinite(s)) or s.min() < 0.0 or s.max() > 1.0):
            raise InputError("label scores must lie in [0, 1]")
        y = _validate_labels(self.labels, s.shape[1])
        if y.shape != (s.shape[0],):
            raise InputError("labels must have one entry per row")
        object.__setattr__(self, "label_scores", s)
        object.__setattr__(self, "labels", y)

    def __len__(self) -> int:
        return self.label_scores.shape[0]

    @property
    def num_classes(self) -> int:
        return self.label_scores.shape[1]

    @property
    def true_label_scores(self) -> np.ndarray:
        return self.label_scores[np.arange(len(self)), self.labels]
