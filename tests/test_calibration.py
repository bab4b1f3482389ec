"""Tests for aggregation, the federated rank quantile, and set evaluation."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from robfcp.calibration import (
    AggregateHistogram,
    aggregate,
    evaluate,
    federated_quantile,
)
from robfcp.errors import InputError
from robfcp.scores import TestBatch
from robfcp.sketch import sketch_scores, uniform_bin_edges


def _agg(counts, num_clients=1, num_bins=None):
    counts = np.asarray(counts, dtype=np.int64)
    h = num_bins or counts.size
    return AggregateHistogram(counts=counts, total_n=int(counts.sum()),
                              num_clients=num_clients, edges=uniform_bin_edges(h))


def brute_force_bin(counts, rank):
    """Oracle: bin of the rank-th smallest element of the expanded multiset."""
    expanded = np.repeat(np.arange(len(counts)), counts)
    return int(expanded[rank - 1])


class TestAggregate:
    def test_sums_reconstructed_counts(self):
        rng = np.random.default_rng(42)
        edges = uniform_bin_edges(10)
        reports = [sketch_scores(i, rng.uniform(size=100 + 10 * i), edges)
                   for i in range(4)]
        agg = aggregate(reports)
        assert agg.total_n == sum(r.n for r in reports)
        assert agg.num_clients == 4
        assert agg.counts.sum() == agg.total_n

    def test_subset_selection(self):
        rng = np.random.default_rng(1)
        edges = uniform_bin_edges(5)
        reports = [sketch_scores(i, rng.uniform(size=50), edges) for i in range(5)]
        agg = aggregate(reports, selected=(1, 3))
        assert agg.num_clients == 2
        assert agg.total_n == 100

    def test_rejects_duplicate_ids(self):
        edges = uniform_bin_edges(4)
        r = sketch_scores(0, [0.1, 0.9], edges)
        with pytest.raises(InputError):
            aggregate([r, r])

    def test_rejects_unknown_selected_id(self):
        edges = uniform_bin_edges(4)
        reports = [sketch_scores(i, [0.1, 0.9], edges) for i in range(3)]
        with pytest.raises(InputError):
            aggregate(reports, selected=(0, 7))

    def test_rejects_duplicate_selected_ids(self):
        edges = uniform_bin_edges(4)
        reports = [sketch_scores(i, [0.1, 0.9], edges) for i in range(2)]
        with pytest.raises(InputError, match="duplicate"):
            aggregate(reports, selected=[0, 0])
        with pytest.raises(InputError, match="duplicate"):
            aggregate(reports, selected=np.array([1, 0, 1]))

    def test_rejects_empty_selection(self):
        edges = uniform_bin_edges(4)
        reports = [sketch_scores(0, [0.1], edges)]
        with pytest.raises(InputError):
            aggregate(reports, selected=())


class TestFederatedQuantile:
    def test_worked_example_alpha_01(self):
        q = federated_quantile(_agg([40, 30, 20, 9]), alpha=0.1)
        assert q.target_rank == 90
        assert q.bin_index == 2
        assert q.q_hat == pytest.approx(0.75)

    def test_worked_example_alpha_05(self):
        q = federated_quantile(_agg([40, 30, 20, 9]), alpha=0.5)
        assert q.target_rank == 50
        assert q.bin_index == 1
        assert q.q_hat == pytest.approx(0.5)

    def test_all_mass_in_top_bin(self):
        q = federated_quantile(_agg([0, 0, 0, 500]), alpha=0.25)
        assert q.q_hat == 1.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            h = int(rng.integers(2, 30))
            counts = rng.integers(0, 40, size=h)
            if counts.sum() == 0:
                counts[0] = 1
            k = int(rng.integers(1, 5))
            n = int(counts.sum())
            alpha = rng.uniform(k / (n + k), 0.9)
            q = federated_quantile(_agg(counts, num_clients=k), alpha)
            rank = min(math.ceil((1.0 - alpha) * (n + k) - 1e-9), n)
            assert q.bin_index == brute_force_bin(counts, rank)
            assert q.q_hat == pytest.approx((q.bin_index + 1) / h)

    def test_inadmissible_alpha(self):
        # 10 samples over 5 clients: floor is 5/15 = 1/3
        counts = np.array([5, 5])
        with pytest.raises(InputError):
            federated_quantile(_agg(counts, num_clients=5), alpha=0.2)
        federated_quantile(_agg(counts, num_clients=5), alpha=1.0 / 3.0)  # exactly at floor

    def test_alpha_domain(self):
        with pytest.raises(InputError):
            federated_quantile(_agg([10]), alpha=0.0)
        with pytest.raises(InputError):
            federated_quantile(_agg([10]), alpha=1.0)

    def test_float_noise_does_not_inflate_rank(self):
        """(1-0.1)*(20000+10) = 18009.000000000004; ceil must stay at 18009."""
        agg = AggregateHistogram(counts=np.array([18008, 1, 991]), total_n=20000,
                                 num_clients=10, edges=uniform_bin_edges(3))
        q = federated_quantile(agg, alpha=0.1)
        assert q.target_rank == 18009
        assert q.bin_index == 1

    def test_sandwich_against_raw_scores(self):
        """q_hat is never below the exact pooled quantile and at most 1/H above."""
        rng = np.random.default_rng(7)
        for _ in range(100):
            h = int(rng.integers(2, 50))
            k = int(rng.integers(1, 8))
            edges = uniform_bin_edges(h)
            per_client = [rng.uniform(size=int(rng.integers(5, 200))) for _ in range(k)]
            reports = [sketch_scores(i, s, edges) for i, s in enumerate(per_client)]
            pooled = np.sort(np.concatenate(per_client))
            n = pooled.size
            alpha = rng.uniform(k / (n + k), 0.9)
            rank = min(math.ceil((1.0 - alpha) * (n + k) - 1e-9), n)
            exact = pooled[rank - 1]
            q = federated_quantile(aggregate(reports), alpha)
            assert exact <= q.q_hat + 1e-12
            assert q.q_hat <= exact + 1.0 / h + 1e-12


@st.composite
def nonuniform_edges(draw):
    """Strictly increasing edges on [0, 1] with Dirichlet-distributed bin widths."""
    h = draw(st.integers(2, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    widths = rng.dirichlet(np.full(h, draw(st.sampled_from((0.2, 1.0, 5.0)))))
    edges = np.concatenate([[0.0], np.cumsum(widths)[:-1], [1.0]])
    assume(np.all(np.diff(edges) > 0.0))
    return edges


class TestSandwichNonUniformEdges:
    """The quantile sandwich on uneven bins: q_hat closes the bin holding the exact quantile."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(edges=nonuniform_edges(), k=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1),
           alpha_share=st.floats(0.0, 1.0))
    def test_sandwich(self, edges, k, seed, alpha_share):
        rng = np.random.default_rng(seed)
        a, b = rng.uniform(0.3, 4.0, size=2)
        per_client = [rng.beta(a, b, size=int(rng.integers(5, 200))) for _ in range(k)]
        reports = [sketch_scores(i, s, edges) for i, s in enumerate(per_client)]
        pooled = np.sort(np.concatenate(per_client))
        n = pooled.size
        alpha = k / (n + k) + alpha_share * (0.9 - k / (n + k))
        rank = min(math.ceil((1.0 - alpha) * (n + k) - 1e-9), n)
        exact = pooled[rank - 1]
        q = federated_quantile(aggregate(reports), alpha)
        assert q.q_hat == edges[q.bin_index + 1]
        assert edges[q.bin_index] - 1e-12 <= exact <= q.q_hat + 1e-12
        assert q.q_hat - exact <= np.diff(edges).max() + 1e-12


class TestPredictionSets:
    def test_evaluate_hand_example(self):
        batch = TestBatch(label_scores=np.array([[0.1, 0.9], [0.8, 0.2], [0.6, 0.7]]),
                          labels=np.array([0, 0, 1]))
        m = evaluate(batch, q_hat=0.65)
        # covered: row0 (0.1), row1 not (0.8), row2 not (0.7) -> 1/3
        assert m.marginal_coverage == pytest.approx(1.0 / 3.0)
        # set sizes: {0}, {1}, {0} -> mean 1.0
        assert m.average_set_size == pytest.approx(1.0)

    def test_evaluate_empty_batch(self):
        batch = TestBatch(label_scores=np.zeros((0, 2)), labels=np.array([], dtype=int))
        with pytest.raises(InputError):
            evaluate(batch, 0.5)
