"""Tests for the report JSONL, score CSV, and config file formats."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robfcp.attacks import AttackSpec
from robfcp.errors import ConfigError, FormatError
from robfcp.io import (
    config_echo,
    config_from_dict,
    parse_config,
    read_probability_csv,
    read_reports,
    reports_from_csv,
)
from robfcp.sketch import ClientReport, report_to_json, sketch_scores, uniform_bin_edges


class TestReportFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(42)
        edges = uniform_bin_edges(25)
        reports = [sketch_scores(i, rng.uniform(size=100), edges) for i in range(5)]
        path = tmp_path / "reports.jsonl"
        path.write_text("".join(report_to_json(r) + "\n" for r in reports))
        assert read_reports(path) == reports

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(ids=st.lists(st.integers(0, 2 ** 40), min_size=1, max_size=12, unique=True),
           h=st.integers(1, 80), seed=st.integers(0, 2 ** 32 - 1),
           concentration=st.sampled_from((0.01, 0.5, 5.0)), uniform=st.booleans())
    def test_round_trip_generated_reports(self, ids, h, seed, concentration, uniform):
        """Every id, n, vector entry and edge survives the file bit for bit."""
        rng = np.random.default_rng(seed)
        if uniform:
            edges = uniform_bin_edges(h)
        else:
            inner = np.unique(rng.uniform(1e-9, 1.0 - 1e-9, size=h - 1))
            edges = np.concatenate(([0.0], inner, [1.0]))
        reports = [ClientReport(client_id=cid, n=int(rng.integers(1, 10 ** 9)),
                                v=rng.dirichlet(np.full(edges.size - 1, concentration)),
                                edges=edges)
                   for cid in ids]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "reports.jsonl"
            path.write_text("".join(report_to_json(r) + "\n" for r in reports))
            assert read_reports(path) == reports

    def test_error_points_at_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = '{"client_id": 0, "n": 2, "edges": [0.0, 1.0], "v": [1.0]}'
        path.write_text(good + "\n" + "{broken\n")
        with pytest.raises(FormatError, match=r"bad\.jsonl:2:"):
            read_reports(path)

    def test_rejects_duplicate_ids(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        line = '{"client_id": 3, "n": 2, "edges": [0.0, 1.0], "v": [1.0]}'
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(FormatError, match="duplicate"):
            read_reports(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n\n")
        with pytest.raises(FormatError, match="no reports"):
            read_reports(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text('\n{"client_id": 1, "n": 2, "edges": [0.0, 1.0], "v": [1.0]}\n\n')
        assert len(read_reports(path)) == 1


def _write_csv(tmp_path, text, name="scores.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestProbabilityCsv:
    HEADER = "client_id,label,p_0,p_1,p_2\n"

    def test_parses_per_client(self, tmp_path):
        path = _write_csv(tmp_path, self.HEADER
                          + "0,1,0.2,0.5,0.3\n"
                          + "1,0,0.7,0.2,0.1\n"
                          + "0,2,0.1,0.1,0.8\n")
        data = read_probability_csv(path)
        assert sorted(data) == [0, 1]
        probs, labels = data[0]
        assert probs.shape == (2, 3)
        np.testing.assert_array_equal(labels, [1, 2])
        np.testing.assert_allclose(probs[1], [0.1, 0.1, 0.8])

    def test_rejects_wrong_header(self, tmp_path):
        path = _write_csv(tmp_path, "id,label,p_0,p_1\n0,0,0.5,0.5\n")
        with pytest.raises(FormatError, match="header"):
            read_probability_csv(path)
        path = _write_csv(tmp_path, "client_id,label,p_0,prob_1\n0,0,0.5,0.5\n")
        with pytest.raises(FormatError, match="p_0"):
            read_probability_csv(path)

    def test_rejects_short_row(self, tmp_path):
        path = _write_csv(tmp_path, self.HEADER + "0,1,0.2,0.5\n")
        with pytest.raises(FormatError, match=":2:"):
            read_probability_csv(path)

    def test_rejects_non_numeric(self, tmp_path):
        path = _write_csv(tmp_path, self.HEADER + "0,1,0.2,high,0.3\n")
        with pytest.raises(FormatError, match=":2:"):
            read_probability_csv(path)

    def test_rejects_label_out_of_range(self, tmp_path):
        path = _write_csv(tmp_path, self.HEADER + "0,3,0.2,0.5,0.3\n")
        with pytest.raises(FormatError, match="label 3"):
            read_probability_csv(path)

    def test_rejects_bad_probability_rows(self, tmp_path):
        path = _write_csv(tmp_path, self.HEADER + "0,1,0.9,0.5,0.3\n")
        with pytest.raises(FormatError, match="client 0"):
            read_probability_csv(path)

    def test_rejects_empty(self, tmp_path):
        with pytest.raises(FormatError, match="empty"):
            read_probability_csv(_write_csv(tmp_path, ""))
        with pytest.raises(FormatError, match="no data rows"):
            read_probability_csv(_write_csv(tmp_path, self.HEADER))


class TestReportsFromCsv:
    def _csv(self, tmp_path, rows=40, clients=3, seed=5):
        rng = np.random.default_rng(seed)
        lines = ["client_id,label,p_0,p_1,p_2"]
        for _ in range(rows):
            cid = int(rng.integers(clients))
            label = int(rng.integers(3))
            p = [float(x) for x in rng.dirichlet(np.ones(3))]
            lines.append(f"{cid},{label},{p[0]!r},{p[1]!r},{p[2]!r}")
        return _write_csv(tmp_path, "\n".join(lines) + "\n")

    def test_lac_sketches_match_direct_scoring(self, tmp_path):
        path = self._csv(tmp_path)
        reports = reports_from_csv(path, score_kind="lac", num_bins=10)
        data = read_probability_csv(path)
        for r in reports:
            probs, labels = data[r.client_id]
            expected = sketch_scores(r.client_id,
                                     1.0 - probs[np.arange(labels.size), labels],
                                     uniform_bin_edges(10))
            assert r == expected

    def test_aps_seeded_per_client(self, tmp_path):
        path = self._csv(tmp_path)
        a = reports_from_csv(path, score_kind="aps", seed=1)
        b = reports_from_csv(path, score_kind="aps", seed=1)
        c = reports_from_csv(path, score_kind="aps", seed=2)
        assert a == b
        assert a != c


class TestConfigFiles:
    MINIMAL = {"K": 6, "k_m": 1, "n_per_client": 100, "C": 4}

    def test_minimal_config_fills_defaults(self):
        cfg = config_from_dict(dict(self.MINIMAL, seed=3))
        assert cfg.H == 100
        assert cfg.alpha == 0.1
        assert cfg.attack.kind == "none"
        assert cfg.mode == "sample"

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="'n_clients'"):
            config_from_dict(dict(self.MINIMAL, n_clients=4))

    def test_missing_required_key_named(self):
        with pytest.raises(ConfigError, match="'C'"):
            config_from_dict({"K": 6, "k_m": 1, "n_per_client": 100})

    def test_attack_shorthand_and_object(self):
        cfg = config_from_dict(dict(self.MINIMAL, seed=0, attack="coverage"))
        assert cfg.attack == AttackSpec("coverage")
        cfg = config_from_dict(dict(self.MINIMAL, seed=0,
                                    attack={"kind": "gaussian", "gaussian_std": 0.25}))
        assert cfg.attack.gaussian_std == 0.25
        with pytest.raises(ConfigError, match="strength"):
            config_from_dict(dict(self.MINIMAL, attack={"kind": "gaussian", "strength": 2}))

    def test_missing_seed_gets_fresh_entropy(self):
        a = config_from_dict(dict(self.MINIMAL))
        b = config_from_dict(dict(self.MINIMAL))
        assert 0 <= a.seed < 2 ** 63
        assert a.seed != b.seed

    def test_parse_config_round_trips_echo(self, tmp_path):
        cfg = config_from_dict(dict(self.MINIMAL, seed=9, attack="efficiency",
                                    n_per_client=[50, 60, 70, 80, 90, 100]))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_echo(cfg)))
        assert parse_config(path) == cfg

    def test_parse_config_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):  # an OSError, like a missing report file
            parse_config(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config(bad)

    def test_echo_collapses_uniform_lists(self):
        cfg = config_from_dict(dict(self.MINIMAL, seed=1))
        echo = config_echo(cfg)
        assert echo["n_per_client"] == 100
        assert list(echo)[:4] == ["K", "k_m", "n_per_client", "C"]
