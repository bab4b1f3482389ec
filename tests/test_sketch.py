"""Tests for histogram sketching, count reconstruction, and the JSON wire format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robfcp.errors import FormatError, InputError
from robfcp.sketch import (
    ClientReport,
    histogram_characterize,
    reconstruct_counts,
    report_from_json,
    report_to_json,
    sketch_scores,
    uniform_bin_edges,
    validate_edges,
)


class TestEdges:
    def test_uniform_grid(self):
        np.testing.assert_allclose(uniform_bin_edges(4), [0.0, 0.25, 0.5, 0.75, 1.0])
        assert uniform_bin_edges(1).tolist() == [0.0, 1.0]

    def test_rejects_zero_bins(self):
        with pytest.raises(InputError):
            uniform_bin_edges(0)

    def test_validate_edges(self):
        validate_edges([0.0, 0.3, 1.0])
        with pytest.raises(InputError):
            validate_edges([0.1, 0.5, 1.0])
        with pytest.raises(InputError):
            validate_edges([0.0, 0.5, 0.9])
        with pytest.raises(InputError):
            validate_edges([0.0, 0.5, 0.5, 1.0])


class TestHistogramCharacterize:
    def test_hand_example(self):
        edges = uniform_bin_edges(4)
        v = histogram_characterize([0.1, 0.3, 0.6, 0.9], edges)
        np.testing.assert_allclose(v, [0.25, 0.25, 0.25, 0.25])

    def test_last_bin_closed(self):
        """A score of exactly 1.0 lands in the last bin, not outside the grid."""
        v = histogram_characterize([1.0, 1.0], uniform_bin_edges(10))
        assert v[-1] == pytest.approx(1.0)
        assert v.sum() == pytest.approx(1.0)

    def test_internal_edge_goes_right(self):
        # half-open bins: 0.5 belongs to [0.5, 0.75)
        v = histogram_characterize([0.5], uniform_bin_edges(4))
        np.testing.assert_allclose(v, [0.0, 0.0, 1.0, 0.0])

    def test_sums_to_one(self):
        rng = np.random.default_rng(42)
        scores = rng.uniform(size=500)
        v = histogram_characterize(scores, uniform_bin_edges(37))
        assert v.sum() == pytest.approx(1.0)

    def test_rejects_out_of_range_scores(self):
        with pytest.raises(InputError):
            histogram_characterize([0.5, 1.2], uniform_bin_edges(4))
        with pytest.raises(InputError):
            histogram_characterize([], uniform_bin_edges(4))


class TestClientReport:
    def test_valid_report(self):
        r = ClientReport(client_id=3, n=10, v=np.array([0.5, 0.5]),
                         edges=np.array([0.0, 0.5, 1.0]))
        assert r.num_bins == 2

    def test_rejects_negative_id(self):
        with pytest.raises(InputError):
            ClientReport(client_id=-1, n=10, v=np.array([1.0]),
                         edges=np.array([0.0, 1.0]))

    def test_rejects_zero_n(self):
        with pytest.raises(InputError):
            ClientReport(client_id=0, n=0, v=np.array([1.0]),
                         edges=np.array([0.0, 1.0]))

    def test_rejects_non_simplex_vector(self):
        with pytest.raises(InputError):
            ClientReport(client_id=0, n=5, v=np.array([0.5, 0.4]),
                         edges=np.array([0.0, 0.5, 1.0]))
        with pytest.raises(InputError):
            ClientReport(client_id=0, n=5, v=np.array([-0.1, 1.1]),
                         edges=np.array([0.0, 0.5, 1.0]))

    def test_rejects_bin_mismatch(self):
        with pytest.raises(InputError):
            ClientReport(client_id=0, n=5, v=np.array([1.0]),
                         edges=np.array([0.0, 0.5, 1.0]))

    def test_equality_by_value(self):
        a = sketch_scores(1, [0.1, 0.6], uniform_bin_edges(2))
        b = sketch_scores(1, [0.2, 0.7], uniform_bin_edges(2))
        assert a == b  # same histogram even though raw scores differ


class TestReconstructCounts:
    def test_worked_example_halves_round_down(self):
        r = ClientReport(client_id=0, n=3, v=np.array([0.5, 0.5]),
                         edges=np.array([0.0, 0.5, 1.0]))
        assert reconstruct_counts(r).tolist() == [2, 1]

    def test_exact_cases(self):
        r = ClientReport(client_id=0, n=4, v=np.array([0.25, 0.75]),
                         edges=np.array([0.0, 0.5, 1.0]))
        assert reconstruct_counts(r).tolist() == [1, 3]
        r = ClientReport(client_id=0, n=7, v=np.array([1.0, 0.0]),
                         edges=np.array([0.0, 0.5, 1.0]))
        assert reconstruct_counts(r).tolist() == [7, 0]

    def test_honest_sketch_round_trips(self):
        rng = np.random.default_rng(42)
        edges = uniform_bin_edges(20)
        for trial in range(25):
            scores = rng.uniform(size=int(rng.integers(1, 400)))
            counts, _ = np.histogram(scores, bins=edges)
            r = sketch_scores(0, scores, edges)
            np.testing.assert_array_equal(reconstruct_counts(r), counts)

    def test_inconsistent_report_still_sums_to_n(self):
        """A vector that never came from n samples must still give counts >= 0 summing to n."""
        rng = np.random.default_rng(1)
        edges = uniform_bin_edges(8)
        for trial in range(25):
            v = rng.dirichlet(np.full(8, 0.3))
            n = int(rng.integers(1, 50))
            r = ClientReport(client_id=0, n=n, v=v / v.sum(), edges=edges)
            counts = reconstruct_counts(r)
            assert counts.sum() == n
            assert counts.min() >= 0


SWEEP = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def report_vectors(draw):
    """(n, v) of a valid report, honest-looking or not.

    Kinds: a Dirichlet vector (v * n fractional almost everywhere), a forged
    point mass, masses k / m on a grid m that need not divide n, and a
    Dirichlet vector whose sum is off 1 by up to the 1e-9 the report allows.
    """
    h = draw(st.integers(1, 120))
    n = draw(st.integers(1, 10 ** 6))
    kind = draw(st.sampled_from(("dirichlet", "point_mass", "grid", "off_sum")))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "point_mass":
        v = np.zeros(h)
        v[rng.integers(h)] = 1.0
    elif kind == "grid":
        m = int(rng.integers(1, 1000))
        cells = rng.multinomial(m, np.full(h, 1.0 / h))
        v = cells / m
    else:
        v = rng.dirichlet(np.full(h, draw(st.sampled_from((0.05, 0.5, 5.0)))))
        if kind == "off_sum":
            v = v * (1.0 + draw(st.floats(-9e-10, 9e-10)))
    return n, v


@st.composite
def score_sets(draw):
    """Scores on [0, 1] over strictly increasing edges, some exactly on an edge."""
    h = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        edges = uniform_bin_edges(h)
    else:
        inner = np.unique(rng.uniform(size=h - 1))
        edges = np.concatenate(([0.0], inner[(inner > 0.0) & (inner < 1.0)], [1.0]))
    n = draw(st.integers(1, 2000))
    scores = rng.beta(draw(st.sampled_from((0.3, 1.0, 4.0))), 2.0, size=n)
    on_edge = rng.uniform(size=n) < draw(st.sampled_from((0.0, 0.2, 1.0)))
    scores[on_edge] = rng.choice(edges, size=int(on_edge.sum()))
    return scores, edges


class TestReconstructCountsProperties:
    @SWEEP
    @given(nv=report_vectors())
    def test_non_negative_and_sums_to_n(self, nv):
        n, v = nv
        counts = reconstruct_counts(ClientReport(client_id=0, n=n, v=v,
                                                 edges=uniform_bin_edges(v.size)))
        assert counts.dtype == np.int64
        assert counts.min() >= 0
        assert int(counts.sum()) == n

    @SWEEP
    @given(data=score_sets())
    def test_honest_sketch_gives_histogram_counts(self, data):
        scores, edges = data
        expected, _ = np.histogram(scores, bins=edges)
        np.testing.assert_array_equal(reconstruct_counts(sketch_scores(3, scores, edges)),
                                      expected)


class TestWireFormat:
    def test_field_order_and_floats(self):
        r = ClientReport(client_id=2, n=4, v=np.array([0.25, 0.75]),
                         edges=np.array([0.0, 0.5, 1.0]))
        line = report_to_json(r)
        assert line == ('{"client_id": 2, "n": 4, "edges": [0.0, 0.5, 1.0],'
                        ' "v": [0.25, 0.75]}')

    def test_round_trip_exact(self):
        rng = np.random.default_rng(6)
        edges = uniform_bin_edges(50)
        r = sketch_scores(9, rng.uniform(size=333), edges)
        back = report_from_json(report_to_json(r))
        assert back == r  # bit-exact vector and edges

    def test_rejects_bad_json(self):
        with pytest.raises(FormatError):
            report_from_json("{not json")

    def test_rejects_non_object(self):
        with pytest.raises(FormatError):
            report_from_json("[1, 2, 3]")

    def test_rejects_missing_field(self):
        with pytest.raises(FormatError):
            report_from_json('{"client_id": 0, "n": 3, "edges": [0.0, 1.0]}')

    def test_rejects_extra_field(self):
        with pytest.raises(FormatError):
            report_from_json('{"client_id": 0, "n": 3, "edges": [0.0, 1.0],'
                             ' "v": [1.0], "note": "hi"}')

    def test_rejects_invalid_payload(self):
        with pytest.raises(FormatError):
            report_from_json('{"client_id": 0, "n": 0, "edges": [0.0, 1.0], "v": [1.0]}')
