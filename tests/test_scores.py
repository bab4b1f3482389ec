"""Unit tests for nonconformity scores."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robfcp.errors import InputError
from robfcp.scores import (
    APS_BLOCK_ROWS,
    _aps_label_scores,
    _aps_scores,
    _row_scores,
    _set_counts,
    score_batch,
    validate_probabilities,
)


def lac_score(probs, label):
    """Oracle for one row: one minus the probability of ``label``."""
    return float(1.0 - np.asarray(probs, dtype=float)[label])


def aps_score(probs, label, u):
    """Oracle for one row: mass of the labels strictly above ``label`` plus ``u`` of its own."""
    p = np.asarray(probs, dtype=float)
    return float(p[p > p[label]].sum() + p[label] * u)


def lac_scores(probs, labels):
    """True-label ``lac`` scores through the public entry; ``lac`` draws nothing."""
    return score_batch(probs, labels, "lac", np.random.default_rng(0))


def aps_scores(probs, labels, u):
    """The true-label ``aps`` kernel with an explicit ``u`` draw per row."""
    return _aps_scores(np.asarray(probs, dtype=float), np.asarray(labels),
                       np.asarray(u, dtype=float))


class TestLac:
    def test_hand_values(self):
        np.testing.assert_allclose(lac_scores([[0.7, 0.2, 0.1]] * 3, [0, 1, 2]), [0.3, 0.8, 0.9])

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(42)
        probs = rng.dirichlet(np.ones(6), size=40)
        labels = rng.integers(0, 6, size=40)
        batch = lac_scores(probs, labels)
        for i in range(40):
            assert batch[i] == pytest.approx(lac_score(probs[i], labels[i]))

    def test_range(self):
        rng = np.random.default_rng(7)
        probs = rng.dirichlet(np.ones(4), size=100)
        labels = rng.integers(0, 4, size=100)
        s = lac_scores(probs, labels)
        assert s.min() >= 0.0 and s.max() <= 1.0


class TestAps:
    """APS: mass strictly above the candidate plus u times its own mass."""

    def test_hand_values(self):
        p = [[0.5, 0.3, 0.2]] * 5
        np.testing.assert_allclose(aps_scores(p, [0, 0, 1, 2, 2], [0.0, 1.0, 0.5, 0.0, 1.0]),
                                   [0.0, 0.5, 0.5 + 0.15, 0.8, 1.0])

    def test_ties_share_no_mass(self):
        # equal probabilities are not "strictly above" each other
        p = [[0.4, 0.4, 0.2]] * 2
        np.testing.assert_allclose(aps_scores(p, [0, 1], [0.0, 0.0]), [0.0, 0.0])

    def test_u_zero_vs_one_spans_own_mass(self):
        rng = np.random.default_rng(3)
        p = np.tile(rng.dirichlet(np.ones(5)), (5, 1))
        labels = np.arange(5)
        lo = aps_scores(p, labels, np.zeros(5))
        hi = aps_scores(p, labels, np.ones(5))
        np.testing.assert_allclose(hi - lo, p[0])

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(11)
        probs = rng.dirichlet(np.ones(5), size=30)
        labels = rng.integers(0, 5, size=30)
        u = rng.uniform(size=30)
        batch = aps_scores(probs, labels, u)
        for i in range(30):
            assert batch[i] == pytest.approx(aps_score(probs[i], labels[i], u[i]))


class TestValidation:
    def test_rejects_bad_sums(self):
        with pytest.raises(InputError):
            validate_probabilities([[0.5, 0.6]])

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            validate_probabilities([[-0.1, 1.1]])

    def test_rejects_single_class(self):
        with pytest.raises(InputError):
            validate_probabilities([[1.0]])

    def test_rejects_nan(self):
        with pytest.raises(InputError):
            validate_probabilities([[np.nan, 1.0]])

    @pytest.mark.parametrize("bad, message", [(np.nan, "finite"), (np.inf, "finite"),
                                              (-np.inf, "finite"), (-0.1, r"\[0, 1\]"),
                                              (1.1, r"\[0, 1\]")])
    def test_names_the_failed_check(self, bad, message):
        with pytest.raises(InputError, match=message):
            validate_probabilities([[0.5, 0.5], [bad, 0.5]])

    def test_accepts_tolerance(self):
        validate_probabilities([[0.5, 0.5 + 5e-10]])

    @pytest.mark.parametrize("shape", [(2,), (1, 2, 2)])
    def test_rejects_non_matrix(self, shape):
        with pytest.raises(InputError, match="matrix"):
            validate_probabilities(np.full(shape, 0.5))

    def test_rejects_bad_labels(self):
        for kind in ("lac", "aps"):
            for labels in ([2], [-1], [0.5]):
                with pytest.raises(InputError):
                    score_batch([[0.5, 0.5]], labels, kind, np.random.default_rng(0))


class TestBatchScores:
    """score_batch: the one lac/aps dispatch, and the only place ``u`` is drawn."""

    def test_lac_batch(self):
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        scores = score_batch(np.array([[0.7, 0.3], [0.2, 0.8]]), np.array([0, 1]), "lac", rng)
        np.testing.assert_allclose(scores, [0.3, 0.2])
        assert rng.bit_generator.state == state  # lac draws nothing

    def test_aps_batch_deterministic_with_rng(self):
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(4), size=25)
        labels = rng.integers(0, 4, size=25)
        u = np.random.default_rng(9).uniform(size=25)
        np.testing.assert_array_equal(
            score_batch(probs, labels, "aps", np.random.default_rng(9)),
            _aps_scores(probs, labels, u))
        np.testing.assert_array_equal(
            score_batch(probs, labels, "aps", np.random.default_rng(9), per_label=True),
            _aps_label_scores(probs, u))

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            score_batch(np.array([[0.5, 0.5]]), np.array([0]), "raps",
                        np.random.default_rng(0))


class TestLabelScoreMatrix:
    """``score_batch(per_label=True)``: every candidate label's score, and the aps kernel behind it."""

    def test_lac_is_one_minus_probs(self):
        rng = np.random.default_rng(2)
        p = rng.dirichlet(np.ones(4), size=10)
        state = rng.bit_generator.state
        m = score_batch(p, np.zeros(10, dtype=int), "lac", rng, per_label=True)
        np.testing.assert_allclose(m, 1.0 - p)
        assert rng.bit_generator.state == state

    def test_aps_matches_scalar_per_label(self):
        rng = np.random.default_rng(5)
        p = rng.dirichlet(np.ones(5), size=12)
        u = rng.uniform(size=12)
        m = _aps_label_scores(p, u)
        for i in range(12):
            for y in range(5):
                assert m[i, y] == pytest.approx(aps_score(p[i], y, u[i]))

    def test_true_label_column_matches_batch(self):
        rng = np.random.default_rng(8)
        p = rng.dirichlet(np.ones(3), size=20)
        labels = rng.integers(0, 3, size=20)
        for kind in ("lac", "aps"):
            m = score_batch(p, labels, kind, np.random.default_rng(1), per_label=True)
            np.testing.assert_allclose(m[np.arange(20), labels],
                                       score_batch(p, labels, kind, np.random.default_rng(1)),
                                       rtol=0.0, atol=1e-12)


# --- oracles and property sweeps for the vectorised kernels ---

SWEEP = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _einsum_label_scores(p, u):
    """The former O(N*C^2) aps label matrix: mass of every strictly greater label."""
    greater = p[:, None, :] > p[:, :, None]
    return np.einsum("nc,nyc->ny", p, greater) + p * u[:, None]


def _unblocked_aps_scores(p, labels, u):
    """The former _aps_scores body: one (N, C) mask and product for the whole batch."""
    py = p[np.arange(p.shape[0]), labels]
    return (p * (p > py[:, None])).sum(axis=1) + py * u


@st.composite
def softmax_rows(draw, max_rows=40, max_classes=120):
    """Random probability rows (N, C), labels and u draws, C in [2, max_classes]."""
    n = draw(st.integers(1, max_rows))
    c = draw(st.integers(2, max_classes))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    logits = rng.standard_normal((n, c)) * draw(st.sampled_from((0.1, 1.0, 4.0)))
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    return p, rng.integers(0, c, size=n), rng.uniform(size=n)


# Rows of dyadic masses: every partial sum is exact, so any summation order
# gives the same bits and the tie rule can be checked with ==.
TIED_ROWS = np.array([
    [0.25, 0.25, 0.25, 0.25],            # all equal
    [0.375, 0.375, 0.125, 0.125],        # duplicated maximum, duplicated minimum
    [0.5, 0.125, 0.125, 0.25],           # duplicated middle values
    [0.125, 0.5, 0.125, 0.25],           # the same, permuted
    [0.0, 0.5, 0.0, 0.5],                # zero masses tie too
    [0.0625, 0.1875, 0.1875, 0.5625],    # duplicated middle, distinct ends
])


class TestApsLabelMatrixOracle:
    """The sorted prefix-sum aps matrix against the former einsum formula."""

    @SWEEP
    @given(batch=softmax_rows())
    def test_matches_einsum(self, batch):
        p, _, u = batch
        np.testing.assert_allclose(_aps_label_scores(p, u), _einsum_label_scores(p, u),
                                   rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("u", [0.0, 0.3, 1.0])
    def test_ties_match_exactly(self, u):
        uu = np.full(len(TIED_ROWS), u)
        m = _aps_label_scores(TIED_ROWS, uu)
        np.testing.assert_array_equal(m, _einsum_label_scores(TIED_ROWS, uu))
        # tied labels share the mass strictly above them
        assert np.all(m[0] == 0.25 * u)
        assert m[1, 0] == m[1, 1] == 0.375 * u
        assert m[2, 1] == m[2, 2] == 0.75 + 0.125 * u

    @SWEEP
    @given(batch=softmax_rows())
    def test_monotone_in_rank(self, batch):
        """Scores follow the probability ranking, so every prediction set is nested."""
        p, _, u = batch
        m = _aps_label_scores(p, u)
        order = np.argsort(-p, axis=1, kind="stable")
        ranked_p = np.take_along_axis(p, order, axis=1)
        ranked_s = np.take_along_axis(m, order, axis=1)
        assert np.all(np.diff(ranked_s, axis=1) >= 0.0)
        tied = np.diff(ranked_p, axis=1) == 0.0
        assert np.all(np.diff(ranked_s, axis=1)[tied] == 0.0)

    @SWEEP
    @given(batch=softmax_rows())
    def test_true_label_column_matches_aps_scores(self, batch):
        p, labels, u = batch
        m = _aps_label_scores(p, u)
        np.testing.assert_allclose(m[np.arange(len(labels)), labels], _aps_scores(p, labels, u),
                                   rtol=0.0, atol=1e-12)

    def test_empty_batch(self):
        m = _aps_label_scores(np.empty((0, 5)), np.empty(0))
        assert m.shape == (0, 5)


class TestApsScoresBlocking:
    """Row-blocked _aps_scores is bit-identical to the one-shot formula."""

    @pytest.mark.parametrize("n", [0, 1, APS_BLOCK_ROWS - 1, APS_BLOCK_ROWS, APS_BLOCK_ROWS + 1,
                                   3 * APS_BLOCK_ROWS + 7])
    def test_array_equal_to_unblocked(self, n):
        rng = np.random.default_rng(n)
        p = rng.dirichlet(np.full(37, 0.5), size=n).reshape(n, 37)
        labels = rng.integers(0, 37, size=n)
        u = rng.uniform(size=n)
        np.testing.assert_array_equal(_aps_scores(p, labels, u),
                                      _unblocked_aps_scores(p, labels, u))


class _FixedDraws:
    """A generator stand-in whose ``uniform`` returns chosen ``u`` draws, zeros included."""

    def __init__(self, u):
        self.u = u

    def uniform(self, size):
        assert size == self.u.size
        return self.u


@st.composite
def rank_order_cases(draw):
    """Rows, labels, ``u`` and thresholds that the label-order oracle scores exactly.

    Dirichlet rows are rounded to multiples of 2**-40 and tie rows are small
    integers times 2**-13, so every mass sum is exact in any order and ``==``
    applies.  Thresholds are drawn from the oracle's own scores, so a score
    equal to its threshold is common.
    """
    n, c = draw(st.integers(1, 30)), draw(st.integers(2, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = draw(st.sampled_from(("dirichlet", "rank 0", "mid-row", "last rank", "whole row")))
    if shape == "dirichlet":
        alpha = draw(st.sampled_from((0.05, 1.0, 20.0)))
        p = np.round(rng.dirichlet(np.full(c, alpha), size=n) * 2.0 ** 40) / 2.0 ** 40
    else:
        ranked = -np.sort(-rng.integers(1, 64, size=(n, c)), axis=1)
        # The tie group starts at this rank, or spans the whole row.
        at = {"rank 0": 0, "mid-row": c // 2 - 1, "last rank": c - 2}.get(shape)
        if at is None:
            ranked[:] = ranked[:, :1]
        else:
            ranked[:, at + 1] = ranked[:, at]
        p = rng.permuted(ranked, axis=1) / 2.0 ** 13
    u = rng.uniform(size=n)
    u[rng.random(n) < 0.25] = 0.0
    return p, rng.integers(0, c, size=n), u, rng.random(4)


class TestRankOrderCounts:
    """The simulator's rank-order scores and set counts against the label-order oracle."""

    @SWEEP
    @given(case=rank_order_cases(), kind=st.sampled_from(("aps", "lac")))
    def test_matches_label_order_oracle(self, case, kind):
        p, labels, u, picks = case
        oracle = _einsum_label_scores(p, u) if kind == "aps" else 1.0 - p
        true = oracle[np.arange(labels.size), labels]
        thresholds = oracle.ravel()[(picks * oracle.size).astype(int)].tolist() + [0.0, 1.0]
        got_true, scores = _row_scores(p, labels, kind, _FixedDraws(u))
        np.testing.assert_array_equal(got_true, true)
        np.testing.assert_array_equal(np.sort(scores, axis=1), np.sort(oracle, axis=1))
        covered, sizes = _set_counts(p, labels, kind, _FixedDraws(u), thresholds)
        assert covered.tolist() == [int((true <= q).sum()) for q in thresholds]
        assert sizes.tolist() == [int((oracle <= q).sum()) for q in thresholds]

    def test_lac_draws_nothing(self):
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        _set_counts(TIED_ROWS, np.zeros(len(TIED_ROWS), dtype=int), "lac", rng, [0.5])
        assert rng.bit_generator.state == state


class TestPublicLabelOrder:
    """``score_batch(per_label=True)`` scatters the rank-order kernel back to label order."""

    @pytest.mark.parametrize("probs", [TIED_ROWS, np.full((2000, 100), 0.01)],
                             ids=["tied rows", "all equal 2000x100"])
    def test_equals_einsum_oracle(self, probs):
        u = np.random.default_rng(12).uniform(size=len(probs))
        got = score_batch(probs, np.zeros(len(probs), dtype=int), "aps", np.random.default_rng(12),
                          per_label=True)
        np.testing.assert_array_equal(got, _einsum_label_scores(probs, u))
