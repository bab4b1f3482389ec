"""End-to-end tests of the command-line interface (in-process)."""

import json

import numpy as np
import pytest

from robfcp import count_estimator
from robfcp.cli import main
from robfcp.io import read_reports, write_reports
from robfcp.sketch import ClientReport, sketch_scores, uniform_bin_edges


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "K": 6, "k_m": 2, "n_per_client": 200, "C": 4, "H": 20,
        "alpha": 0.1, "attack": "coverage", "n_test": 200,
        "trials": 3, "seed": 17,
    }))
    return str(path)


@pytest.fixture
def reports_path(tmp_path):
    rng = np.random.default_rng(4)
    edges = uniform_bin_edges(50)
    reports = [sketch_scores(i, rng.beta(2, 4, size=300), edges) for i in range(7)]
    forged = np.zeros(50)
    forged[0] = 1.0
    reports += [ClientReport(client_id=7 + j, n=300, v=forged.copy(), edges=edges)
                for j in range(3)]
    path = tmp_path / "reports.jsonl"
    write_reports(path, reports)
    return str(path)


class TestSimulate:
    def test_stdout_report_shape(self, capsys, config_path):
        code, out, err = run_cli(capsys, "simulate", "--config", config_path)
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["config_echo"]["K"] == 6
        assert payload["config_echo"]["seed"] == 17
        assert len(payload["trials"]) == 3
        assert "rob_cov" in payload["aggregates"]

    def test_out_and_csv_files(self, capsys, config_path, tmp_path):
        out_path = tmp_path / "report.json"
        csv_path = tmp_path / "trials.csv"
        code, out, _ = run_cli(capsys, "simulate", "--config", config_path,
                               "--out", str(out_path), "--csv", str(csv_path))
        assert code == 0
        assert out == ""  # everything went to files
        payload = json.loads(out_path.read_text())
        lines = csv_path.read_text().splitlines()
        assert lines[0] == ("trial,attack,naive_cov,naive_size,rob_cov,rob_size,"
                            "km_hat,detect_exact,bound_lo,bound_hi")
        assert len(lines) == 1 + 3
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "coverage"
        assert first[7] in ("true", "false")
        # CSV floats round-trip to the JSON report values exactly
        assert float(first[4]) == payload["trials"][0]["robust"]["coverage"]

    def test_deterministic_output_bytes(self, capsys, config_path, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "simulate", "--config", config_path, "--out", str(a),
                "--threads", "1")
        run_cli(capsys, "simulate", "--config", config_path, "--out", str(b),
                "--threads", "4")
        assert a.read_bytes() == b.read_bytes()

    def test_sweep(self, capsys, config_path, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "simulate", "--config", config_path,
                               "--sweep", "km=0:2", "--csv", str(csv_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["sweep"]["key"] == "k_m"
        assert [row["value"] for row in payload["sweep"]["rows"]] == [0, 1, 2]
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 1 + 3 * 3  # three sweep values x three trials

    def test_sweep_over_K(self, capsys, config_path, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        code, out, err = run_cli(capsys, "simulate", "--config", config_path,
                                 "--sweep", "K=6:8", "--csv", str(csv_path))
        assert (code, err) == (0, "")
        rows = json.loads(out)["sweep"]["rows"]
        assert [row["value"] for row in rows] == [6, 7, 8]
        assert len(csv_path.read_text().splitlines()) == 1 + 3 * 3

    def test_sweep_over_K_rejects_per_client_lists(self, capsys, tmp_path):
        path = tmp_path / "lists.json"
        path.write_text(json.dumps({"K": 6, "k_m": 2, "n_per_client": [200, 300] * 3,
                                    "C": 4, "H": 20, "n_test": 100, "seed": 1}))
        code, _, err = run_cli(capsys, "simulate", "--config", str(path), "--sweep", "K=6:7")
        assert code == 2
        assert err.startswith("ERROR:config:n_per_client list must have K=7 entries")

    def test_sweep_unknown_key(self, capsys, config_path):
        code, out, err = run_cli(capsys, "simulate", "--config", config_path,
                                 "--sweep", "gamma=1:2")
        assert code == 2
        assert err.startswith("ERROR:usage:")

    def test_missing_config_file(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "simulate", "--config",
                                 str(tmp_path / "nope.json"))
        assert code == 2
        assert err.startswith("ERROR:config:")
        assert out == ""

    def test_invalid_config_value(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"K": 6, "k_m": 3, "n_per_client": 10, "C": 3}))
        code, _, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 2
        assert err.startswith("ERROR:config:")


class TestCertify:
    BASE = ["certify", "--alpha", "0.1", "--beta", "0.05", "--H", "10",
            "--kb", "9", "--km", "1", "--nm", "1000000", "--sigma", "0",
            "--epsilon", "0.001"]

    def test_json_certificate(self, capsys):
        code, out, _ = run_cli(capsys, *self.BASE, "--nb", "1000000")
        assert code == 0
        cert = json.loads(out)
        assert cert["lower"] == pytest.approx(0.8428969737763716)
        assert cert["variant"] == "normal"
        assert set(cert) == {"lower", "upper", "p_byz", "variant", "vacuous"}

    def test_variants(self, capsys):
        for variant in ("homogeneous", "dkw"):
            code, out, _ = run_cli(capsys, *self.BASE, "--nb", "1000000",
                                   "--variant", variant)
            assert code == 0
            assert json.loads(out)["variant"] == variant

    def test_overestimate_needs_reported(self, capsys):
        code, _, err = run_cli(capsys, *self.BASE, "--nb", "1000000",
                               "--variant", "overestimate")
        assert code == 2 and err.startswith("ERROR:usage:")
        code, out, _ = run_cli(capsys, *self.BASE, "--nb", "1000000",
                               "--variant", "overestimate", "--kb-reported", "12")
        assert code == 0
        assert json.loads(out)["variant"] == "overestimate"

    def test_nb_sweep_csv(self, capsys):
        code, out, _ = run_cli(capsys, *self.BASE, "--sweep",
                               "nb=1000000:3000000:1000000")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "nb,lower,upper,p_byz,vacuous"
        assert len(lines) == 4
        lower = [float(line.split(",")[1]) for line in lines[1:]]
        assert lower == sorted(lower)  # more samples -> tighter bound

    def test_nb_required_without_sweep(self, capsys):
        code, _, err = run_cli(capsys, *self.BASE)
        assert code == 2 and err.startswith("ERROR:usage:")

    def test_invalid_parameters(self, capsys):
        code, _, err = run_cli(capsys, "certify", "--alpha", "0.1", "--beta",
                               "0.05", "--H", "10", "--kb", "2", "--km", "2",
                               "--nb", "100", "--nm", "100")
        assert code == 2
        assert err.startswith("ERROR:input:")


class TestEstimate:
    def test_finds_planted_attackers(self, capsys, reports_path):
        code, out, _ = run_cli(capsys, "estimate", "--reports", reports_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["k_m_hat"] == 3
        zs = [z for z, _ in payload["objective_trace"]]
        assert zs == [6, 7, 8, 9]
        assert payload["converged"] is True and payload["cycled"] is False
        assert payload["iterations"] >= 1

    def test_reports_max_iter_exhaustion(self, capsys, reports_path):
        code, out, _ = run_cli(capsys, "estimate", "--reports", reports_path,
                               "--max-iter", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"] is False
        assert payload["iterations"] == 1

    def test_reports_cycle(self, capsys, reports_path, monkeypatch):
        """T forced to peak at z=8 in round one and z=6 in round two: a 2-cycle 6 -> 8 -> 6."""
        calls = []

        def fake_objective(z, ordered_vectors):
            calls.append(z)
            return 1.0 if z == (8 if len(calls) <= 4 else 6) else 0.0

        monkeypatch.setattr(count_estimator, "objective_T", fake_objective)
        code, out, _ = run_cli(capsys, "estimate", "--reports", reports_path)
        assert code == 0
        payload = json.loads(out)
        assert (payload["iterations"], payload["converged"], payload["cycled"]) == (2, True, True)

    def test_all_benign_reports_zero_with_the_scan_trace(self, capsys, tmp_path):
        rng = np.random.default_rng(42)
        edges = uniform_bin_edges(10)
        reports = [sketch_scores(i, rng.beta(2, 2, size=500), edges) for i in range(8)]
        path = tmp_path / "benign.jsonl"
        write_reports(path, reports)
        scan = count_estimator.estimate_benign_count(reports)
        assert scan.k_m_hat > 0  # the scan alone always drops someone
        code, out, _ = run_cli(capsys, "estimate", "--reports", str(path))
        assert code == 0
        assert out == json.dumps({
            "k_m_hat": 0,
            "objective_trace": [[z, t] for z, t in scan.objective_trace],
            "iterations": scan.iterations,
            "converged": scan.converged,
            "cycled": scan.cycled,
        }, indent=2) + "\n"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "estimate", "--reports",
                               str(tmp_path / "none.jsonl"))
        assert code == 2
        assert err.startswith("ERROR:io:")


class TestCalibrate:
    def test_with_known_kb(self, capsys, reports_path):
        code, out, _ = run_cli(capsys, "calibrate", "--reports", reports_path,
                               "--alpha", "0.1", "--kb", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["benign_set"] == [0, 1, 2, 3, 4, 5, 6]
        assert payload["k_m_hat"] == 3
        assert 0.0 < payload["q_hat"] <= 1.0

    def test_with_estimated_km(self, capsys, reports_path):
        code, out, _ = run_cli(capsys, "calibrate", "--reports", reports_path,
                               "--alpha", "0.1", "--estimate-km")
        payload = json.loads(out)
        assert payload["k_m_hat"] == 3
        assert payload["benign_set"] == [0, 1, 2, 3, 4, 5, 6]

    def test_requires_exactly_one_source(self, capsys, reports_path, tmp_path):
        code, _, err = run_cli(capsys, "calibrate", "--alpha", "0.1", "--kb", "7")
        assert code == 2 and err.startswith("ERROR:usage:")
        csv_path = tmp_path / "x.csv"
        csv_path.write_text("client_id,label,p_0,p_1\n0,0,0.6,0.4\n")
        code, _, err = run_cli(capsys, "calibrate", "--reports", reports_path,
                               "--csv", str(csv_path), "--alpha", "0.1", "--kb", "2")
        assert code == 2 and err.startswith("ERROR:usage:")

    def test_requires_exactly_one_kb_mode(self, capsys, reports_path):
        code, _, err = run_cli(capsys, "calibrate", "--reports", reports_path,
                               "--alpha", "0.1")
        assert code == 2 and err.startswith("ERROR:usage:")
        code, _, err = run_cli(capsys, "calibrate", "--reports", reports_path,
                               "--alpha", "0.1", "--kb", "7", "--estimate-km")
        assert code == 2 and err.startswith("ERROR:usage:")

    def test_csv_route(self, capsys, tmp_path):
        rng = np.random.default_rng(8)
        lines = ["client_id,label,p_0,p_1,p_2"]
        for _ in range(120):
            cid = int(rng.integers(4))
            label = int(rng.integers(3))
            p = [float(x) for x in rng.dirichlet(np.ones(3))]
            lines.append(f"{cid},{label},{p[0]!r},{p[1]!r},{p[2]!r}")
        path = tmp_path / "probs.csv"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(capsys, "calibrate", "--csv", str(path),
                               "--alpha", "0.2", "--kb", "4", "--bins", "25")
        assert code == 0
        payload = json.loads(out)
        assert payload["benign_set"] == [0, 1, 2, 3]
        assert 0.0 < payload["q_hat"] <= 1.0

    @pytest.mark.parametrize("ids", ["offset", "rotated"])
    @pytest.mark.parametrize("mode", [["--kb", "7"], ["--estimate-km"]])
    def test_selects_client_ids_not_rows(self, capsys, reports_path, tmp_path, ids, mode):
        """The forged reports are rows 7-9; the output names clients by id."""
        code, out, _ = run_cli(capsys, "calibrate", "--reports", reports_path,
                               "--alpha", "0.1", *mode)
        assert code == 0
        plain = json.loads(out)
        relabel = {"offset": lambda row: 100 + row,
                   "rotated": lambda row: (row + 3) % 10}[ids]
        reports = [ClientReport(relabel(r.client_id), r.n, r.v, r.edges)
                   for r in read_reports(reports_path)]
        rng = np.random.default_rng(1)
        path = tmp_path / "relabelled.jsonl"
        write_reports(path, [reports[i] for i in rng.permutation(len(reports))])
        code, out, err = run_cli(capsys, "calibrate", "--reports", str(path),
                                 "--alpha", "0.1", *mode)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["benign_set"] == sorted(relabel(row) for row in range(7))
        assert payload["k_m_hat"] == 3
        assert payload["q_hat"] == plain["q_hat"]

    @pytest.mark.parametrize("kb", ["-1", "0", "1", "11"])
    def test_kb_outside_range(self, capsys, reports_path, kb):
        code, _, err = run_cli(capsys, "calibrate", "--reports", reports_path,
                               "--alpha", "0.1", "--kb", kb)
        assert code == 2
        assert err.startswith("ERROR:input:")

    def test_kb_equal_to_K_keeps_everyone(self, capsys, reports_path):
        code, out, _ = run_cli(capsys, "calibrate", "--reports", reports_path,
                               "--alpha", "0.1", "--kb", "10")
        assert code == 0
        payload = json.loads(out)
        assert payload["benign_set"] == list(range(10))
        assert payload["k_m_hat"] == 0

    def test_inadmissible_alpha_surfaces_input_error(self, capsys, reports_path):
        code, _, err = run_cli(capsys, "calibrate", "--reports", reports_path,
                               "--alpha", "0.001", "--kb", "7")
        assert code == 2
        assert err.startswith("ERROR:input:")


def test_unknown_subcommand(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 2
    assert err.startswith("ERROR:usage:")
