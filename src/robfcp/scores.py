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
the labels scoring <= q.  The ``aps`` kernel scores rows sorted by descending
probability; ``per_label`` scatters its output back to label order.  The
simulator scores its own softmax rows unvalidated, and counts its test sets
in rank order with :func:`_set_counts`, the same scores never scattered.
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
    if not np.issubdtype(y.dtype, np.integer) and not np.all(y == np.floor(y)):
        raise InputError("labels must be integers")
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


def _aps_ranked_scores(ranked: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``aps`` scores of rows sorted by descending probability: entry (i, j) scores rank j.

    Row i's labels share one draw ``u[i]``, which nests the sets in the threshold.  The
    mass above a label is an exclusive prefix sum, O(N·C); tied labels all get the sum at
    their group's start, wherever a sort put them.  It may differ in the last few ulp from
    the label-order sum of :func:`_aps_scores`.
    """
    scores = np.zeros_like(ranked)
    np.cumsum(ranked[:, :-1], axis=1, out=scores[:, 1:])
    tied = ranked[:, 1:] == ranked[:, :-1]
    if tied.any():  # the sums never fall, so a running max carries each group's first sum
        scores[:, 1:][tied] = 0.0
        np.maximum.accumulate(scores, axis=1, out=scores)
    scores += ranked * u[:, None]
    return scores


def _aps_label_scores(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per-label ``aps`` matrix: :func:`_aps_ranked_scores` scattered back to label order."""
    order = np.argsort(p, axis=1)[:, ::-1]
    scores = np.empty_like(p)
    np.put_along_axis(scores, order, _aps_ranked_scores(np.take_along_axis(p, order, axis=1), u), 1)
    return scores


def _row_scores(p: np.ndarray, y: np.ndarray, kind: str, rng: np.random.Generator):
    """``_score_batch``'s true-label scores and per-label rows; ``aps`` rows stay in rank order."""
    rows = np.arange(y.size)
    if kind == "lac":
        return 1.0 - p[rows, y], 1.0 - p
    scores = _aps_ranked_scores(np.sort(p, axis=1)[:, ::-1], rng.uniform(size=y.size))
    # The true label's score opens its tie group, after the labels more probable than it.
    return scores[rows, np.count_nonzero(p > p[rows, y][:, None], axis=1)], scores


def _set_counts(p: np.ndarray, y: np.ndarray, kind: str, rng: np.random.Generator, thresholds):
    """Per threshold q, the rows whose true label scores <= q (row 0) and the labels that do (row 1)."""
    return np.array([[np.count_nonzero(s <= q) for q in thresholds]
                     for s in _row_scores(p, y, kind, rng)])


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

