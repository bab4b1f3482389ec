"""Nonconformity scores for probabilistic classifiers.

Two score families are provided, both mapping a predicted class-probability
vector and a candidate label to a value in [0, 1]:

* ``lac``: one minus the probability of the candidate label.  Low scores mean
  the classifier is confident in that label.
* ``aps``: the cumulated probability mass of all labels ranked strictly above
  the candidate, plus a randomized fraction ``u`` of the candidate's own mass.

:func:`score_batch` is the one public entry: it validates (N, C) probability
rows, draws ``u`` for ``aps``, and returns the true-label scores or, with
``per_label``, every candidate label's score: a row's prediction set at q is
the labels scoring <= q.  The simulator scores its own softmax rows through
the unvalidated ``_score_batch``.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

# Probability vectors must sum to one within this absolute tolerance.
PROB_ATOL = 1e-9

SCORE_KINDS = ("lac", "aps")

#: Rows per block in :func:`_aps_scores`, so each block's mask and product stay in cache.
APS_BLOCK_ROWS = 256


def validate_probabilities(probs: np.ndarray) -> np.ndarray:
    """Validate an (N, C) probability matrix and return it as float64."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 2:
        raise InputError(f"probabilities must be an (N, C) matrix, got ndim={p.ndim}")
    if p.shape[1] < 2:
        raise InputError(f"need at least 2 classes, got {p.shape[1]}")
    # One pass: NaN fails both comparisons and an infinity one of them.
    if not ((p >= 0.0) & (p <= 1.0)).all():
        if not np.isfinite(p).all():
            raise InputError("probabilities must be finite")
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


def _aps_scores(p: np.ndarray, y: np.ndarray, u: np.ndarray) -> np.ndarray:
    """True-label ``aps`` scores of valid rows ``p``, labels ``y`` and draws ``u``.

    O(N·C), reduced over blocks of :data:`APS_BLOCK_ROWS` rows.  Tie rule:
    labels with equal probability are not ranked above each other, so each
    gets only the mass strictly greater than its own.
    """
    py = p[np.arange(p.shape[0]), y]
    above = np.empty(p.shape[0])
    for start in range(0, p.shape[0], APS_BLOCK_ROWS):
        rows = slice(start, start + APS_BLOCK_ROWS)
        block = p[rows]
        (block * (block > py[rows, None])).sum(axis=1, out=above[rows])
    return above + py * u


def _aps_label_scores(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per-label ``aps`` matrix: entry (i, y) is the score of candidate label y on row i.

    The same draw ``u[i]`` is shared by every candidate label of row i, which
    keeps prediction sets nested in the quantile threshold.  The mass above
    each label is an exclusive prefix sum over the row sorted by descending
    probability: O(N·C log C) time and O(N·C) memory.  Tie rule: labels with
    equal probability all get the mass strictly greater than theirs, the
    prefix sum at the start of their tie group, so the order in which the sort
    places tied labels does not change any score.  The prefix sum adds in rank
    order, so a score may differ in the last few ulp from a sum of the same
    masses taken in label order, as :func:`_aps_scores` takes it.
    """
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
    p = validate_probabilities(probs)
    return _score_batch(p, _validate_labels(labels, p.shape[1]), kind, rng, per_label)


def _score_batch(p: np.ndarray, y: np.ndarray, kind: str, rng: np.random.Generator,
                 per_label: bool = False) -> np.ndarray:
    """:func:`score_batch` on rows already known valid, such as a softmax's own output."""
    u = rng.uniform(size=y.size) if kind == "aps" else None
    if per_label:
        return 1.0 - p if u is None else _aps_label_scores(p, u)
    return 1.0 - p[np.arange(p.shape[0]), y] if u is None else _aps_scores(p, y, u)

