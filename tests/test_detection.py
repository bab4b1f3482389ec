"""Tests for pairwise distances, maliciousness scoring, and benign selection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robfcp.detection import (
    as_vector_matrix,
    maliciousness_scores,
    pairwise_distances,
    rank_reports,
)
from robfcp.errors import InputError
from robfcp.sketch import sketch_scores, uniform_bin_edges


def _dist(vectors, p=2):
    return pairwise_distances(np.asarray(vectors, dtype=float), p=p)


def _broadcast_pairwise(vectors, p):
    """The (K, K, H) broadcast formula the row sweep replaced, kept as its oracle."""
    diff = vectors[:, None, :] - vectors[None, :, :]
    return (np.abs(diff) ** p).sum(axis=2) ** (1.0 / p)


@st.composite
def vector_sets(draw, max_k=40, max_h=120):
    """(K, H) matrices: simplex points, wide-range reals, or a few repeated rows."""
    k = draw(st.integers(2, max_k))
    h = draw(st.integers(1, max_h))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(("simplex", "wide", "repeats")))
    if kind == "simplex":
        return rng.dirichlet(np.full(h, 0.5), size=k)
    if kind == "wide":
        return rng.standard_normal((k, h)) * 10.0 ** rng.integers(-6, 7, size=(k, 1))
    pool = rng.uniform(size=(3, h))
    return pool[rng.integers(0, 3, size=k)]


SWEEP = settings(max_examples=60, deadline=None, derandomize=True, database=None)


class TestPairwiseDistances:
    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(42)
        vecs = rng.dirichlet(np.ones(6), size=5)
        for p in (1, 2, 3):
            d = _dist(vecs, p=p)
            np.testing.assert_allclose(d, d.T)
            np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-12)

    def test_l1_hand_values(self):
        d = _dist([[1.0, 0.0], [0.0, 1.0]], p=1)
        assert d[0, 1] == pytest.approx(2.0)

    def test_l2_hand_values(self):
        d = _dist([[1.0, 0.0], [0.0, 1.0]], p=2)
        assert d[0, 1] == pytest.approx(math.sqrt(2.0))

    def test_accepts_reports(self):
        edges = uniform_bin_edges(4)
        reports = [sketch_scores(i, [0.1 * (i + 1)], edges) for i in range(3)]
        d = pairwise_distances(reports, p=1)
        assert d.shape == (3, 3)

    def test_rejects_single_client(self):
        with pytest.raises(InputError):
            _dist([[1.0, 0.0]])

    def test_rejects_bad_norm(self):
        for p in (0, -1, 1.5, "manhattan", "inf", math.inf, "cosine", True):
            with pytest.raises(InputError, match="integer >= 1"):
                _dist([[1.0, 0.0], [0.0, 1.0]], p=p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_vectors(self, bad):
        vecs = np.array([[0.5, 0.5], [0.4, 0.6], [0.2, 0.8]])
        vecs[1, 0] = bad
        with pytest.raises(InputError, match="finite"):
            pairwise_distances(vecs)
        with pytest.raises(InputError, match="finite"):
            pairwise_distances(list(vecs), p=1)

    def test_mixed_edges_rejected(self):
        a = sketch_scores(0, [0.1], uniform_bin_edges(4))
        b = sketch_scores(1, [0.1], uniform_bin_edges(5))
        with pytest.raises(InputError):
            pairwise_distances([a, b])

    def test_edges_compared_by_value(self):
        """Equal edges in distinct arrays stack; edges of other values do not."""
        a = sketch_scores(0, [0.1], uniform_bin_edges(4))
        b = sketch_scores(1, [0.6], uniform_bin_edges(4))
        assert a.edges is not b.edges
        np.testing.assert_array_equal(as_vector_matrix([a, b]), [a.v, b.v])
        c = sketch_scores(2, [0.1], [0.0, 0.2, 0.5, 0.75, 1.0])
        with pytest.raises(InputError, match="same bin edges"):
            as_vector_matrix([a, b, c])


class TestRowSweepMatchesBroadcast:
    """The row-swept kernel is bit-identical to the broadcast formula."""

    @SWEEP
    @given(vectors=vector_sets(), p=st.sampled_from((1, 2, 3, 4)))
    def test_bit_identical(self, vectors, p):
        d = pairwise_distances(vectors, p=p)
        assert np.array_equal(d, _broadcast_pairwise(vectors, p))
        assert np.array_equal(d, d.T)
        assert not np.diag(d).any()


class TestMaliciousnessScores:
    def test_single_neighbor(self):
        d = _dist([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], p=2)
        m = maliciousness_scores(d, k_b=2)
        np.testing.assert_allclose(m, [0.0, 0.0, math.sqrt(2.0)])

    def test_hand_computed_l1_example(self):
        """Four 2-bin vectors; mean of the 2 nearest ℓ1 neighbors per row."""
        vecs = [[1.0, 0.0], [0.9, 0.1], [0.8, 0.2], [0.0, 1.0]]
        m = maliciousness_scores(_dist(vecs, p=1), k_b=3)
        np.testing.assert_allclose(m, [0.3, 0.2, 0.3, 1.7])

    def test_identical_vectors_score_zero(self):
        vecs = np.tile([0.25, 0.75], (5, 1))
        m = maliciousness_scores(_dist(vecs), k_b=3)
        np.testing.assert_allclose(m, 0.0, atol=1e-12)

    def test_k_b_bounds(self):
        d = _dist([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        with pytest.raises(InputError):
            maliciousness_scores(d, k_b=1)
        with pytest.raises(InputError):
            maliciousness_scores(d, k_b=4)
        for bad in (2.5, True):  # a named error, not a TypeError from np.partition
            with pytest.raises(InputError, match="k_b must be an integer in"):
                maliciousness_scores(d, k_b=bad)

    def test_isolation_monotonicity(self):
        """Pushing one client further from everyone cannot lower its score."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            k = int(rng.integers(4, 9))
            vecs = rng.dirichlet(np.ones(5), size=k)
            k_b = int(rng.integers(2, k + 1))
            before = maliciousness_scores(_dist(vecs, p=1), k_b)
            target = int(rng.integers(k))
            # an extreme corner vector is at least as far from every simplex point
            pushed = vecs.copy()
            pushed[target] = np.eye(5)[0] if vecs[target, 0] < 0.5 else np.eye(5)[1]
            d0, d1 = _dist(vecs, p=1), _dist(pushed, p=1)
            if np.all(d1[target] >= d0[target] - 1e-12):
                after = maliciousness_scores(_dist(pushed, p=1), k_b)
                assert after[target] >= before[target] - 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        vecs = rng.dirichlet(np.ones(4), size=6)
        perm = rng.permutation(6)
        m = maliciousness_scores(_dist(vecs, p=2), k_b=4)
        m_perm = maliciousness_scores(_dist(vecs[perm], p=2), k_b=4)
        np.testing.assert_allclose(m_perm, m[perm])


def _points(*xs):
    """One-bin vectors at positions ``xs``: distances are plain gaps on a line."""
    return np.array(xs, dtype=float)[:, None]


class TestSelectBenign:
    """rank_reports keeps the k_b lowest-scoring rows, ascending, ties to the lowest row."""

    def test_spec_of_hand_example(self):
        # k_b=3 scores each row by its 2 nearest others: [1.5, 1.0, 1.5, 8.5]
        assert rank_reports(_points(0, 1, 2, 10), k_b=3) == (0, 1, 2)

    def test_tie_break_lowest_id(self):
        assert rank_reports(_points(0, 0, 0, 0), k_b=2) == (0, 1)
        # rows 0, 1 and 2 all score 1.0 at k_b=2; the two lowest rows are kept
        assert rank_reports(_points(2, 1, 0, 10), k_b=2) == (0, 1)

    def test_clear_outlier(self):
        assert rank_reports(_points(10, 0, 1, 2), k_b=3) == (1, 2, 3)

    def test_k_b_full_range(self):
        points = _points(0.4, 0.1, 0.3)
        assert rank_reports(points, 2) == (0, 2)
        assert rank_reports(points, 3) == (0, 1, 2)
        for k_b in (1, 4):
            with pytest.raises(InputError):
                rank_reports(points, k_b)


class TestRankReports:
    def test_end_to_end_separation(self):
        """Far-away attackers are excluded whenever they are a strict minority."""
        rng = np.random.default_rng(42)
        edges = uniform_bin_edges(10)
        for _ in range(20):
            k = int(rng.integers(4, 9))
            k_m = int(rng.integers(1, (k - 1) // 2 + 1))
            reports = []
            for cid in range(k):
                if cid < k - k_m:
                    scores = rng.uniform(0.0, 0.3, size=200)
                else:
                    scores = rng.uniform(0.8, 1.0, size=200)
                reports.append(sketch_scores(cid, scores, edges))
            assert rank_reports(reports, k_b=k - k_m, p=2) == tuple(range(k - k_m))

    def test_permutation_maps_ids(self):
        rng = np.random.default_rng(5)
        edges = uniform_bin_edges(8)
        base = [rng.uniform(0.0, 0.4, size=100) for _ in range(4)]
        base.append(rng.uniform(0.9, 1.0, size=100))
        reports = [sketch_scores(i, s, edges) for i, s in enumerate(base)]
        assert rank_reports(reports, k_b=4) == (0, 1, 2, 3)
        # swap the outlier into slot 0
        swapped = [base[4], base[1], base[2], base[3], base[0]]
        reports2 = [sketch_scores(i, s, edges) for i, s in enumerate(swapped)]
        assert rank_reports(reports2, k_b=4) == (1, 2, 3, 4)
