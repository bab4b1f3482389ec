"""Unit tests for nonconformity scores."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robfcp.errors import InputError
from robfcp.scores import (
    APS_BLOCK_ROWS,
    TestBatch,
    aps_scores,
    lac_scores,
    label_score_matrix,
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

    def test_u_out_of_range(self):
        with pytest.raises(InputError):
            aps_scores([[0.5, 0.5]], [0], [1.5])
        with pytest.raises(InputError):
            aps_scores([[0.5, 0.5]], [0], [-0.1])


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

    def test_accepts_tolerance(self):
        validate_probabilities([[0.5, 0.5 + 5e-10]])

    @pytest.mark.parametrize("shape", [(2,), (1, 2, 2)])
    def test_rejects_non_matrix(self, shape):
        with pytest.raises(InputError, match="matrix"):
            validate_probabilities(np.full(shape, 0.5))

    def test_rejects_bad_labels(self):
        with pytest.raises(InputError):
            lac_scores([[0.5, 0.5]], [2])
        with pytest.raises(InputError):
            lac_scores([[0.5, 0.5]], [-1])


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
            aps_scores(probs, labels, u))
        np.testing.assert_array_equal(
            score_batch(probs, labels, "aps", np.random.default_rng(9), per_label=True),
            label_score_matrix(probs, "aps", u))
        np.testing.assert_array_equal(
            score_batch(probs, labels, "lac", np.random.default_rng(9), per_label=True),
            label_score_matrix(probs, "lac"))

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            score_batch(np.array([[0.5, 0.5]]), np.array([0]), "raps",
                        np.random.default_rng(0))


class TestLabelScoreMatrix:
    def test_lac_is_one_minus_probs(self):
        rng = np.random.default_rng(2)
        p = rng.dirichlet(np.ones(4), size=10)
        np.testing.assert_allclose(label_score_matrix(p, "lac"), 1.0 - p)

    def test_aps_matches_scalar_per_label(self):
        rng = np.random.default_rng(5)
        p = rng.dirichlet(np.ones(5), size=12)
        u = rng.uniform(size=12)
        m = label_score_matrix(p, "aps", u)
        for i in range(12):
            for y in range(5):
                assert m[i, y] == pytest.approx(aps_score(p[i], y, u[i]))

    def test_aps_requires_u(self):
        with pytest.raises(InputError):
            label_score_matrix(np.array([[0.5, 0.5]]), "aps")

    def test_true_label_column_matches_batch(self):
        rng = np.random.default_rng(8)
        p = rng.dirichlet(np.ones(3), size=20)
        labels = rng.integers(0, 3, size=20)
        m = label_score_matrix(p, "lac")
        np.testing.assert_allclose(m[np.arange(20), labels], lac_scores(p, labels))


class TestTestBatch:
    def test_round_trip(self):
        rng = np.random.default_rng(4)
        p = rng.dirichlet(np.ones(3), size=15)
        labels = rng.integers(0, 3, size=15)
        batch = TestBatch(label_score_matrix(p, "lac"), labels)
        assert len(batch) == 15
        assert batch.num_classes == 3
        np.testing.assert_allclose(batch.true_label_scores, lac_scores(p, labels))

    def test_rejects_out_of_range_scores(self):
        with pytest.raises(InputError):
            TestBatch(np.array([[0.5, 1.5]]), np.array([0]))

    def test_rejects_label_shape_mismatch(self):
        with pytest.raises(InputError):
            TestBatch(np.array([[0.5, 0.5]]), np.array([0, 1]))


# --- oracles and property sweeps for the vectorised kernels ---

SWEEP = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _einsum_label_scores(p, u):
    """The former O(N*C^2) aps label matrix: mass of every strictly greater label."""
    greater = p[:, None, :] > p[:, :, None]
    return np.einsum("nc,nyc->ny", p, greater) + p * u[:, None]


def _unblocked_aps_scores(p, labels, u):
    """The former aps_scores body: one (N, C) mask and product for the whole batch."""
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
        np.testing.assert_allclose(label_score_matrix(p, "aps", u), _einsum_label_scores(p, u),
                                   rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("u", [0.0, 0.3, 1.0])
    def test_ties_match_exactly(self, u):
        uu = np.full(len(TIED_ROWS), u)
        m = label_score_matrix(TIED_ROWS, "aps", uu)
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
        m = label_score_matrix(p, "aps", u)
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
        m = label_score_matrix(p, "aps", u)
        np.testing.assert_allclose(m[np.arange(len(labels)), labels], aps_scores(p, labels, u),
                                   rtol=0.0, atol=1e-12)

    def test_empty_batch(self):
        m = label_score_matrix(np.empty((0, 5)), "aps", np.empty(0))
        assert m.shape == (0, 5)


class TestApsScoresBlocking:
    """Row-blocked aps_scores is bit-identical to the one-shot formula."""

    @pytest.mark.parametrize("n", [0, 1, APS_BLOCK_ROWS - 1, APS_BLOCK_ROWS, APS_BLOCK_ROWS + 1,
                                   3 * APS_BLOCK_ROWS + 7])
    def test_array_equal_to_unblocked(self, n):
        rng = np.random.default_rng(n)
        p = rng.dirichlet(np.full(37, 0.5), size=n).reshape(n, 37)
        labels = rng.integers(0, 37, size=n)
        u = rng.uniform(size=n)
        np.testing.assert_array_equal(aps_scores(p, labels, u),
                                      _unblocked_aps_scores(p, labels, u))
