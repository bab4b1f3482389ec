"""Tests for forged client reports."""

import numpy as np
import pytest

from robfcp.attacks import ATTACK_KINDS, DRAWING_KINDS, OWN_SCORE_KINDS, AttackSpec, apply_attack
from robfcp.errors import InputError
from robfcp.sketch import sketch_scores, uniform_bin_edges


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


class TestHonestAndGaussian:
    def test_none_is_honest_histogram(self):
        rng = _rng(42)
        scores = rng.uniform(size=300)
        r = apply_attack(AttackSpec("none"), 1, 300, EDGES, rng, benign_scores=scores)
        assert r == sketch_scores(1, scores, EDGES)

    def test_none_requires_scores(self):
        with pytest.raises(InputError):
            apply_attack(AttackSpec("none"), 1, 300, EDGES, _rng())

    def test_gaussian_matches_clip_and_bin_oracle(self):
        """Re-derive the noisy histogram with an identical generator stream."""
        scores = _rng(7).uniform(size=400)
        r = apply_attack(AttackSpec("gaussian", gaussian_std=0.3), 2, 400, EDGES,
                         _rng(123), benign_scores=scores)
        oracle_rng = _rng(123)
        noisy = np.clip(scores + oracle_rng.normal(0.0, 0.3, size=400), 0.0, 1.0)
        counts, _ = np.histogram(noisy, bins=EDGES)
        np.testing.assert_allclose(r.v, counts / 400)

    def test_gaussian_moves_mass_to_extremes(self):
        """Large noise plus clipping piles mass into the edge bins."""
        scores = np.full(2000, 0.5)
        r = apply_attack(AttackSpec("gaussian", gaussian_std=2.0), 0, 2000, EDGES,
                         _rng(5), benign_scores=scores)
        assert r.v[0] + r.v[-1] > 0.5

    def test_gaussian_requires_scores(self):
        with pytest.raises(InputError):
            apply_attack(AttackSpec("gaussian"), 0, 10, EDGES, _rng())


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
                         benign_scores=[0.1, 0.6], benign_reports=honest)

    @pytest.mark.parametrize("kind", ["none", "coverage", "efficiency"])
    def test_other_kinds_accept_no_generator(self, kind):
        r = apply_attack(AttackSpec(kind), 1, 2, EDGES, None, benign_scores=[0.1, 0.6])
        assert (r.client_id, r.n) == (1, 2)

    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_kind_tables_say_what_each_kind_needs(self, kind):
        """A kind needs its own scores iff in OWN_SCORE_KINDS, a generator iff in DRAWING_KINDS."""
        honest = [sketch_scores(0, [0.1, 0.6], EDGES)]
        full = dict(benign_scores=[0.1, 0.6], benign_reports=honest)

        def error(rng, **inputs):
            try:
                apply_attack(AttackSpec(kind), 1, 2, EDGES, rng, **inputs)
            except InputError as exc:
                return str(exc)
            return None

        assert error(_rng(), **full) is None
        assert error(_rng(), benign_reports=honest) == (
            f"the {kind} attack requires the client's own scores"
            if kind in OWN_SCORE_KINDS else None)
        assert (error(None, **full) is None) == (kind not in DRAWING_KINDS)
