"""Tests for forged client reports."""

import tracemalloc

import numpy as np
import pytest

from robfcp.attacks import ATTACK_KINDS, DRAWING_KINDS, OWN_REPORT_KINDS, AttackSpec, apply_attack
from robfcp.errors import InputError
from robfcp.sketch import ClientReport, sketch_scores, uniform_bin_edges


EDGES = uniform_bin_edges(10)


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestAttackSpec:
    def test_defaults(self):
        spec = AttackSpec()
        assert spec.kind == "none"
        assert spec.gaussian_std == 0.5

    def test_rejects_unknown_kind(self):
        with pytest.raises(InputError):
            AttackSpec(kind="dropout")

    def test_rejects_bad_std(self):
        with pytest.raises(InputError):
            AttackSpec(kind="gaussian", gaussian_std=0.0)


class TestPointMassAttacks:
    def test_coverage_mass_in_lowest_bin(self):
        r = apply_attack(AttackSpec("coverage"), 3, 500, EDGES, _rng())
        assert r.v[0] == 1.0
        assert r.v[1:].sum() == 0.0
        assert r.n == 500 and r.client_id == 3

    def test_efficiency_mass_in_highest_bin(self):
        r = apply_attack(AttackSpec("efficiency"), 0, 200, EDGES, _rng())
        assert r.v[-1] == 1.0
        assert r.v[:-1].sum() == 0.0


def _forge(v, edges, std):
    """The ``gaussian`` forgery of the vector ``v`` on ``edges``."""
    own = ClientReport(client_id=0, n=1, v=v, edges=edges)
    return apply_attack(AttackSpec("gaussian", gaussian_std=std), 0, 1, edges, None,
                        own_report=own).v


def _kernel(edges, std):
    """K, row by row: row i is the forgery of the one-hot vector e_i."""
    return np.array([_forge(one_hot, edges, std) for one_hot in np.eye(edges.size - 1)])


def _clip_and_bin(edges, std, row, draws, rng):
    """Monte-Carlo oracle for row ``row`` of the kernel: noise uniform points, clip, bin."""
    x = rng.uniform(edges[row], edges[row + 1], size=draws)
    counts, _ = np.histogram(np.clip(x + rng.normal(0.0, std, size=draws), 0.0, 1.0),
                             bins=edges)
    return counts / draws


def _assert_matches_oracle(edges, std, draws=10 ** 6, seed=0):
    """Every entry within five standard errors of its Monte-Carlo share."""
    kernel, rng = _kernel(edges, std), _rng(seed)
    for row in range(edges.size - 1):
        share = _clip_and_bin(edges, std, row, draws, rng)
        stderr = np.sqrt(kernel[row] * (1.0 - kernel[row]) / draws)
        np.testing.assert_array_less(np.abs(share - kernel[row]), 5.0 * stderr + 1e-12)


class TestGaussianKernel:
    @pytest.mark.parametrize("edges", [uniform_bin_edges(1), uniform_bin_edges(2),
                                       uniform_bin_edges(37), uniform_bin_edges(100)])
    @pytest.mark.parametrize("std", [1e-9, 1e-3, 0.3, 5.0, 1e3])
    def test_rows_are_laws(self, edges, std):
        kernel = _kernel(edges, std)
        assert kernel.shape == (edges.size - 1,) * 2
        assert kernel.min() >= 0.0
        np.testing.assert_allclose(kernel.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("std", [1e-9, 0.3, 1e3])
    def test_one_bin_sends_its_vector_unchanged(self, std):
        edges = uniform_bin_edges(1)
        np.testing.assert_array_equal(_forge(np.ones(1), edges, std), np.ones(1))

    @pytest.mark.parametrize("h", [2, 10])
    def test_clipped_mass_lands_in_the_end_bins(self, h):
        """With std far above the grid, nearly everything is clipped, half to each end."""
        kernel = _kernel(uniform_bin_edges(h), 1e3)
        np.testing.assert_allclose(kernel[:, 0], 0.5, atol=1e-3)
        np.testing.assert_allclose(kernel[:, -1], 0.5, atol=1e-3)

    def test_two_bins_match_the_oracle(self):
        _assert_matches_oracle(uniform_bin_edges(2), 0.3, seed=1)

    def test_uneven_edges_are_refused(self):
        """K is Toeplitz only on the uniform grid, the one every trial builds."""
        with pytest.raises(InputError, match=r"^the gaussian attack needs the uniform grid of "
                                             r"uniform_bin_edges\(H\)$"):
            _forge(np.full(4, 0.25), np.array([0.0, 0.05, 0.5, 0.55, 1.0]), 0.2)

    def test_forgery_memory_is_linear_in_H(self):
        """At H=500 an H x H kernel alone would be 1.9 MiB; one forgery peaks below 0.5 MiB."""
        edges = uniform_bin_edges(500)
        own = sketch_scores(0, _rng(3).uniform(size=2000), edges)
        tracemalloc.start()
        try:
            apply_attack(AttackSpec("gaussian", gaussian_std=0.1), 0, 2000, edges, None,
                         own_report=own)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 2 ** 20


class TestHonestAndGaussian:
    def test_none_is_honest_histogram(self):
        """``none`` sends the attacker's own report unchanged."""
        own = sketch_scores(1, _rng(42).uniform(size=300), EDGES)
        assert apply_attack(AttackSpec("none"), 1, 300, EDGES, None, own_report=own) == own

    def test_none_requires_own_report(self):
        with pytest.raises(InputError, match="the none attack requires the client's own report"):
            apply_attack(AttackSpec("none"), 1, 300, EDGES, _rng())

    def test_gaussian_matches_clip_and_bin_oracle(self):
        """The forgery of e_i is the clip-and-bin law of a uniform point of bin i."""
        _assert_matches_oracle(EDGES, 0.3)

    def test_gaussian_sends_the_kernel_times_its_own_vector(self):
        """Linearity: the forgery of v is the v-weighted sum of the one-hot forgeries."""
        own = sketch_scores(2, _rng(7).uniform(size=400), EDGES)
        r = apply_attack(AttackSpec("gaussian", gaussian_std=0.3), 2, 400, EDGES, None,
                         own_report=own)
        kernel = _kernel(EDGES, 0.3)
        expected = sum(own.v[i] * kernel[i] for i in range(10))
        np.testing.assert_allclose(r.v, expected, rtol=0, atol=1e-15)
        assert (r.client_id, r.n) == (2, 400)

    def test_gaussian_moves_mass_to_extremes(self):
        """Large noise plus clipping piles mass into the edge bins."""
        own = sketch_scores(0, np.full(2000, 0.5), EDGES)
        r = apply_attack(AttackSpec("gaussian", gaussian_std=2.0), 0, 2000, EDGES,
                         None, own_report=own)
        assert r.v[0] + r.v[-1] > 0.5

    def test_gaussian_requires_own_report(self):
        with pytest.raises(InputError, match="the gaussian attack requires"):
            apply_attack(AttackSpec("gaussian"), 0, 10, EDGES, _rng())

    @pytest.mark.parametrize("kind", OWN_REPORT_KINDS)
    def test_own_report_must_share_the_grid(self, kind):
        own = sketch_scores(0, [0.2, 0.4], uniform_bin_edges(5))
        with pytest.raises(InputError, match=f"the {kind} attack's source report uses different"):
            apply_attack(AttackSpec(kind), 0, 2, EDGES, None, own_report=own)


class TestMimic:
    def test_copies_a_benign_vector_exactly(self):
        rng = _rng(42)
        honest = [sketch_scores(i, rng.uniform(size=200), EDGES) for i in range(5)]
        r = apply_attack(AttackSpec("mimic"), 9, 200, EDGES, _rng(0),
                         benign_reports=honest)
        assert any(np.array_equal(r.v, h.v) for h in honest)
        assert r.client_id == 9

    def test_choice_is_uniform_over_reports(self):
        rng = _rng(1)
        honest = [sketch_scores(i, rng.uniform(size=50), EDGES) for i in range(3)]
        picks = []
        gen = _rng(11)
        for _ in range(300):
            r = apply_attack(AttackSpec("mimic"), 5, 50, EDGES, gen,
                             benign_reports=honest)
            picks.append(next(i for i, h in enumerate(honest)
                              if np.array_equal(r.v, h.v)))
        counts = np.bincount(picks, minlength=3)
        assert counts.min() > 60  # each source picked a fair share of 300

    def test_requires_reports(self):
        with pytest.raises(InputError):
            apply_attack(AttackSpec("mimic"), 0, 10, EDGES, _rng())

    def test_rejects_mismatched_edges(self):
        honest = [sketch_scores(0, [0.2, 0.4], uniform_bin_edges(5))]
        with pytest.raises(InputError):
            apply_attack(AttackSpec("mimic"), 1, 10, EDGES, _rng(),
                         benign_reports=honest)


def test_n_is_trusted_metadata():
    """The reported n is whatever the server knows, regardless of the forgery."""
    for kind in ("coverage", "efficiency"):
        r = apply_attack(AttackSpec(kind), 0, 1234, EDGES, _rng())
        assert r.n == 1234


class TestGeneratorArgument:
    @pytest.mark.parametrize("kind", DRAWING_KINDS)
    def test_drawing_kind_rejects_no_generator(self, kind):
        honest = [sketch_scores(0, [0.1, 0.6], EDGES)]
        with pytest.raises(InputError, match=f"the {kind} attack .* rng=None"):
            apply_attack(AttackSpec(kind), 1, 2, EDGES, None,
                         own_report=honest[0], benign_reports=honest)

    @pytest.mark.parametrize("kind", ["none", "coverage", "efficiency", "gaussian"])
    def test_other_kinds_accept_no_generator(self, kind):
        own = sketch_scores(1, [0.1, 0.6], EDGES)
        r = apply_attack(AttackSpec(kind), 1, 2, EDGES, None, own_report=own)
        assert (r.client_id, r.n) == (1, 2)

    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_kind_tables_say_what_each_kind_needs(self, kind):
        """A kind needs its own report iff in OWN_REPORT_KINDS, a generator iff in DRAWING_KINDS."""
        honest = [sketch_scores(0, [0.1, 0.6], EDGES)]
        full = dict(own_report=sketch_scores(1, [0.3, 0.9], EDGES), benign_reports=honest)

        def error(rng, **inputs):
            try:
                apply_attack(AttackSpec(kind), 1, 2, EDGES, rng, **inputs)
            except InputError as exc:
                return str(exc)
            return None

        assert error(_rng(), **full) is None
        assert error(_rng(), benign_reports=honest) == (
            f"the {kind} attack requires the client's own report"
            if kind in OWN_REPORT_KINDS else None)
        assert (error(None, **full) is None) == (kind not in DRAWING_KINDS)
