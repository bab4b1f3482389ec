"""End-to-end tests of the command-line interface.

Most run ``main`` in-process; the error-line cases at the end run
``python -m robfcp.cli`` as a subprocess, the way a shell sees it.
"""

import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from robfcp import count_estimator, simulation
from robfcp.cli import main
from robfcp.errors import InputError
from robfcp.io import read_reports
from robfcp.simulation import run_trial
from robfcp.sketch import ClientReport, report_to_json, sketch_scores, uniform_bin_edges


def _fail_in_a_worker(config, trial_index):
    """``run_trial`` for trial 0, which runs before the fork; a worker's trial raises."""
    if trial_index == 0:
        return run_trial(config, 0)
    raise InputError(f"trial {trial_index} failed in process {os.getpid()}")


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
    path.write_text("".join(report_to_json(r) + "\n" for r in reports))
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

    def test_trial_error_from_a_worker_exits_2(self, capsys, config_path, monkeypatch):
        monkeypatch.setattr(simulation, "run_trial", _fail_in_a_worker)  # the fork inherits it
        code, out, err = run_cli(capsys, "simulate", "--config", config_path, "--threads", "2")
        assert code == 2 and out == ""
        assert err.startswith("ERROR:input:trial 1 failed in process ")
        assert err != f"ERROR:input:trial 1 failed in process {os.getpid()}\n"
        assert multiprocessing.active_children() == []

    def test_zero_threads_names_the_flag(self, capsys, config_path):
        code, out, err = run_cli(capsys, "simulate", "--config", config_path, "--threads", "0")
        assert (code, out) == (2, "")
        assert err == "ERROR:input:--threads must be an integer >= 1, got 0\n"

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
        """A file that cannot be opened is ``io``, as for a report file or a score CSV."""
        path = tmp_path / "nope.json"
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert (code, out) == (2, "")
        assert err == f"ERROR:io:[Errno 2] No such file or directory: '{path}'\n"

    def test_invalid_config_value(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"K": 6, "k_m": 3, "n_per_client": 10, "C": 3}))
        code, _, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 2
        assert err.startswith("ERROR:config:")

    @pytest.mark.parametrize("attack", ["bogus", {"kind": "bogus"}, {"gaussian_std": -1},
                                        {"kind": "mimic", "direction_override": "mass_low"},
                                        {"kind": "gaussian", "gaussian_std": "x"},
                                        {"kind": "gaussian", "gaussian_std": 1e400},
                                        {"kind": "gaussian", "gaussian_std": True},
                                        {"kind": "coverage", "direction_override": "mass_high"}])
    def test_invalid_attack_is_a_config_error(self, capsys, tmp_path, attack):
        path = tmp_path / "bad_attack.json"
        path.write_text(json.dumps({"K": 6, "k_m": 1, "n_per_client": 10, "C": 3,
                                    "attack": attack}))
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 2
        assert err.startswith("ERROR:config:attack: ")
        assert out == ""

    @pytest.mark.parametrize("key, raw", [("K", '"ten"'), ("K", "NaN"), ("H", "1e400"),
                                          ("n_per_client", '"abc"'), ("signal", '"x"'),
                                          ("signal", "NaN"), ("alpha", "1e400"),
                                          ("trials", "true"), ("signal", "true"),
                                          ("alpha", "true"), ("alpha", "1" + "0" * 400),
                                          ("score_kind", '"bogus"'), ("km_known", "1")])
    def test_malformed_number_is_a_config_error(self, capsys, tmp_path, key, raw):
        config = {"K": 6, "k_m": 1, "n_per_client": 10, "C": 3, "H": 10, key: "@"}
        path = tmp_path / "bad_number.json"
        path.write_text(json.dumps(config).replace('"@"', raw))
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 2
        assert err.startswith(f"ERROR:config:{key} must be ")
        assert out == ""

    def test_removed_dirichlet_beta_key_is_rejected(self, capsys, tmp_path):
        """Labels are uniform in sample mode; the old class-mixture knob is an unknown key."""
        path = tmp_path / "dirichlet.json"
        path.write_text(json.dumps({"K": 6, "k_m": 1, "n_per_client": 10, "C": 3,
                                    "dirichlet_beta": 0.5}))
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert (code, out) == (2, "")
        assert err == "ERROR:config:unknown config key: 'dirichlet_beta'\n"


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
        for variant in ("normal", "dkw"):
            code, out, _ = run_cli(capsys, *self.BASE, "--nb", "1000000",
                                   "--variant", variant)
            assert code == 0
            assert json.loads(out)["variant"] == variant

    def test_homogeneous_variant_is_gone(self, capsys):
        code, out, err = run_cli(capsys, *self.BASE, "--nb", "1000000",
                                 "--variant", "homogeneous")
        assert code == 2 and out == ""
        assert err.startswith("ERROR:usage:")

    @pytest.mark.parametrize("flag, value", [("--sigma", "nan"), ("--sigma", "inf"),
                                             ("--epsilon", "nan"), ("--epsilon", "inf")])
    def test_non_finite_parameter_is_an_input_error(self, capsys, flag, value):
        code, out, err = run_cli(capsys, *self.BASE, "--nb", "1000000", flag, value)
        assert code == 2 and out == ""
        interval = {"--sigma": "[0.0, 2.0]", "--epsilon": "[0.0, 1.0]"}[flag]
        assert err.startswith(f"ERROR:input:{flag[2:]} must be a number in {interval}, got ")

    #: What ``overestimate`` reads: no --km, --nm or --sigma.
    OVERESTIMATE = ["certify", "--alpha", "0.1", "--beta", "0.05", "--H", "10", "--kb", "9",
                    "--epsilon", "0.001", "--nb", "1000000", "--variant", "overestimate"]

    def test_overestimate_needs_reported(self, capsys):
        code, _, err = run_cli(capsys, *self.OVERESTIMATE)
        assert code == 2 and err.startswith("ERROR:usage:")
        code, out, err = run_cli(capsys, *self.OVERESTIMATE, "--kb-reported", "12")
        assert (code, err) == (0, "")
        # The bytes it printed when --km, --nm and --sigma were required (and ignored).
        assert out == ('{\n  "lower": 0.6360523854937156,\n  "upper": 1.1639556234342041,\n'
                       '  "p_byz": 0.26294662351520337,\n  "variant": "overestimate",\n'
                       '  "vacuous": true\n}\n')

    @pytest.mark.parametrize("flag, value", [("--km", "1"), ("--nm", "5"), ("--sigma", "1.5"),
                                             ("--km", "9")])
    def test_overestimate_rejects_what_it_does_not_read(self, capsys, flag, value):
        code, out, err = run_cli(capsys, *self.OVERESTIMATE, "--kb-reported", "12", flag, value)
        assert (code, out) == (2, "")
        assert err == f"ERROR:usage:{flag} goes with --variant normal or dkw, and only with it\n"

    @pytest.mark.parametrize("variant", ["normal", "dkw"])
    @pytest.mark.parametrize("missing", ["--km", "--nm"])
    def test_normal_and_dkw_need_km_and_nm(self, capsys, variant, missing):
        argv = list(self.BASE)
        del argv[argv.index(missing):argv.index(missing) + 2]
        code, out, err = run_cli(capsys, *argv, "--nb", "1000000", "--variant", variant)
        assert (code, out) == (2, "")
        assert err == f"ERROR:usage:--variant {variant} needs --km and --nm\n"

    @pytest.mark.parametrize("variant", ["normal", "dkw"])
    def test_kb_reported_without_overestimate_is_a_usage_error(self, capsys, variant):
        code, out, err = run_cli(capsys, *self.BASE, "--nb", "1000000",
                                 "--variant", variant, "--kb-reported", "12")
        assert (code, out) == (2, "")
        assert err.startswith("ERROR:usage:")

    def test_nb_with_sweep_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, *self.BASE, "--nb", "5",
                                 "--sweep", "nb=1000000:3000000:1000000")
        assert (code, out) == (2, "")
        assert err == "ERROR:usage:argument --sweep: not allowed with argument --nb\n"

    def test_sweep_over_another_key_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, *self.BASE, "--sweep", "n=1:2")
        assert (code, out) == (2, "")
        assert err == "ERROR:usage:certify sweeps only support nb, got 'n'\n"

    def test_nb_sweep_csv(self, capsys):
        code, out, _ = run_cli(capsys, *self.BASE, "--sweep",
                               "nb=1000000:3000000:1000000")
        assert code == 0
        assert out.splitlines() == [
            "nb,lower,upper,p_byz,vacuous",
            "1000000,0.8428969737763709,0.9571110351515488,0.056102035232548114,false",
            "2000000,0.8730613428725327,0.9269426616094472,0.025938161629697056,false",
            "3000000,0.881558617667259,0.9184440519913988,0.01744105200039867,false",
        ]  # more samples -> tighter bound

    def test_nb_required_without_sweep(self, capsys):
        code, out, err = run_cli(capsys, *self.BASE)
        assert (code, out) == (2, "")
        assert err == "ERROR:usage:one of the arguments --nb --sweep is required\n"

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
        assert payload["all_benign"] is False
        assert payload["iterations"] >= 1

    def test_reports_max_iter_exhaustion(self, capsys, reports_path, monkeypatch):
        monkeypatch.setattr(count_estimator, "MAX_ROUNDS", 1)
        code, out, _ = run_cli(capsys, "estimate", "--reports", reports_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"] is False
        assert payload["iterations"] == 1

    def test_reports_cycle(self, capsys, reports_path, monkeypatch):
        """T forced to peak at z=8 in round one and z=6 in round two: a 2-cycle 6 -> 8 -> 6."""
        calls = []

        def fake_objective(ordered_vectors):
            calls.append(len(ordered_vectors))
            return (np.arange(6, 10) == (8 if len(calls) == 1 else 6)).astype(float)

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
        path.write_text("".join(report_to_json(r) + "\n" for r in reports))
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
            "all_benign": True,
        }, indent=2) + "\n"

    @pytest.mark.parametrize("field, raw", [("n", "Infinity"), ("n", "NaN"), ("client_id", "1e400")])
    def test_malformed_number_is_a_format_error(self, capsys, reports_path, tmp_path,
                                                field, raw):
        lines = Path(reports_path).read_text(encoding="utf-8").splitlines()
        payload = json.loads(lines[1])
        lines[1] = json.dumps({**payload, field: "@"}).replace('"@"', raw)
        path = tmp_path / "bad_number.jsonl"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "estimate", "--reports", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"ERROR:format:{path}:2: invalid report: {field} must be ")

    def test_zero_p_names_p(self, capsys, reports_path):
        """The same line as ``calibrate --p 0``, not the distance helper's "norm order"."""
        code, out, err = run_cli(capsys, "estimate", "--reports", reports_path, "--p", "0")
        assert (code, out) == (2, "")
        assert err == "ERROR:input:p must be an integer >= 1, got 0\n"

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

    def test_nan_edge_is_a_format_error(self, capsys, tmp_path):
        """A NaN interior edge is caught on its line, not later as mismatched grids."""
        path = tmp_path / "nan_edges.jsonl"
        line = '{"client_id": %d, "n": 10, "edges": [0.0, NaN, 1.0], "v": [0.5, 0.5]}\n'
        path.write_text("".join(line % i for i in range(3)))
        code, out, err = run_cli(capsys, "calibrate", "--reports", str(path),
                                 "--alpha", "0.5", "--kb", "3")
        assert code == 2 and out == ""
        assert err == f"ERROR:format:{path}:1: invalid report: edges must be strictly increasing\n"

    def test_requires_exactly_one_source(self, capsys, reports_path, tmp_path):
        code, out, err = run_cli(capsys, "calibrate", "--alpha", "0.1", "--kb", "7")
        assert (code, out) == (2, "")
        assert err == "ERROR:usage:one of the arguments --reports --csv is required\n"
        csv_path = tmp_path / "x.csv"
        csv_path.write_text("client_id,label,p_0,p_1\n0,0,0.6,0.4\n")
        code, out, err = run_cli(capsys, "calibrate", "--reports", reports_path,
                                 "--csv", str(csv_path), "--alpha", "0.1", "--kb", "2")
        assert (code, out) == (2, "")
        assert err == "ERROR:usage:argument --csv: not allowed with argument --reports\n"

    def test_requires_exactly_one_kb_mode(self, capsys, reports_path):
        code, out, err = run_cli(capsys, "calibrate", "--reports", reports_path,
                                 "--alpha", "0.1")
        assert (code, out) == (2, "")
        assert err == "ERROR:usage:one of the arguments --kb --estimate-km is required\n"
        code, out, err = run_cli(capsys, "calibrate", "--reports", reports_path,
                                 "--alpha", "0.1", "--kb", "7", "--estimate-km")
        assert (code, out) == (2, "")
        assert err == "ERROR:usage:argument --estimate-km: not allowed with argument --kb\n"

    @pytest.mark.parametrize("kb", ["-1", "0", "1", "11"])
    def test_kb_outside_two_to_k_names_the_flag(self, capsys, reports_path, kb):
        """--kb is checked in [2, K] before k_m is derived from it."""
        code, out, err = run_cli(capsys, "calibrate", "--reports", reports_path,
                                 "--alpha", "0.1", "--kb", kb)
        assert (code, out) == (2, "")
        assert err == f"ERROR:input:--kb must be an integer in [2, 11), got {kb}\n"

    def test_kb_equal_to_k_keeps_every_client(self, capsys, reports_path):
        code, out, _ = run_cli(capsys, "calibrate", "--reports", reports_path,
                               "--alpha", "0.1", "--kb", "10")
        assert code == 0
        payload = json.loads(out)
        assert payload["benign_set"] == list(range(10))
        assert payload["k_m_hat"] == 0

    @pytest.mark.parametrize("flag, value", [("--score-kind", "aps"), ("--bins", "0"),
                                             ("--seed", "5")])
    def test_csv_only_flag_with_reports_is_a_usage_error(self, capsys, reports_path, flag, value):
        code, out, err = run_cli(capsys, "calibrate", "--reports", reports_path,
                                 "--alpha", "0.1", "--kb", "3", flag, value)
        assert (code, out) == (2, "")
        assert err == f"ERROR:usage:{flag} goes with --csv, and only with it\n"

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

    def test_negative_client_id_in_csv_is_a_format_error(self, capsys, tmp_path):
        path = tmp_path / "negative.csv"
        path.write_text("client_id,label,p_0,p_1\n0,0,0.6,0.4\n-1,1,0.3,0.7\n")
        code, out, err = run_cli(capsys, "calibrate", "--csv", str(path),
                                 "--alpha", "0.5", "--kb", "3")
        assert (code, out) == (2, "")
        assert err.startswith(f"ERROR:format:{path}:3: client_id -1 ")

    def test_negative_seed_is_an_input_error(self, capsys, tmp_path):
        """The seed is checked for lac too, which draws nothing."""
        path = tmp_path / "probs.csv"
        path.write_text("client_id,label,p_0,p_1\n0,0,0.6,0.4\n1,1,0.3,0.7\n")
        code, out, err = run_cli(capsys, "calibrate", "--csv", str(path), "--alpha", "0.5",
                                 "--kb", "2", "--seed", "-1")
        assert (code, out) == (2, "")
        assert err == "ERROR:input:seed must be an integer >= 0, got -1\n"

    @pytest.mark.parametrize("mode", [["--kb", "2"], ["--estimate-km"]])
    def test_one_client_is_a_count_error(self, capsys, tmp_path, mode):
        """The report count is checked before --kb is read against it."""
        path = tmp_path / "one.csv"
        path.write_text("client_id,label,p_0,p_1\n0,0,0.6,0.4\n0,1,0.3,0.7\n")
        code, out, err = run_cli(capsys, "calibrate", "--csv", str(path), "--alpha", "0.5", *mode)
        assert (code, out) == (2, "")
        assert err == "ERROR:input:need at least 2 reports, got 1\n"

    def test_zero_p_is_an_input_error_when_every_client_is_kept(self, capsys, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("client_id,label,p_0,p_1\n0,0,0.6,0.4\n1,1,0.3,0.7\n")
        code, out, err = run_cli(capsys, "calibrate", "--csv", str(path), "--alpha", "0.5",
                                 "--kb", "2", "--p", "0")
        assert (code, out) == (2, "")
        assert err == "ERROR:input:p must be an integer >= 1, got 0\n"

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
        path.write_text("".join(report_to_json(reports[i]) + "\n"
                                for i in rng.permutation(len(reports))))
        code, out, err = run_cli(capsys, "calibrate", "--reports", str(path),
                                 "--alpha", "0.1", *mode)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["benign_set"] == sorted(relabel(row) for row in range(7))
        assert payload["k_m_hat"] == 3
        assert payload["q_hat"] == plain["q_hat"]

    @pytest.mark.parametrize("kb", ["1", "11"])
    def test_kb_outside_range(self, capsys, reports_path, kb):
        code, _, err = run_cli(capsys, "calibrate", "--reports", reports_path,
                               "--alpha", "0.1", "--kb", kb)
        assert code == 2
        assert err.startswith("ERROR:input:")

    def test_inadmissible_alpha_surfaces_input_error(self, capsys, reports_path):
        code, _, err = run_cli(capsys, "calibrate", "--reports", reports_path,
                               "--alpha", "0.001", "--kb", "7")
        assert code == 2
        assert err.startswith("ERROR:input:")


def test_unknown_subcommand(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 2
    assert err.startswith("ERROR:usage:")


@pytest.mark.parametrize("bounds", ["", "=3", "=1:2:3:4", "=1:x", "=3:2", "=1:3:0"],
                         ids=["no_equals", "one_bound", "four_parts", "non_integer",
                              "decreasing", "zero_step"])
@pytest.mark.parametrize("command", ["simulate", "certify"])
def test_malformed_sweep_is_one_usage_line(capsys, config_path, command, bounds):
    """Every way to get ``key=a:b[:step]`` wrong is the same line, naming the grammar."""
    argv, key = {"simulate": (["simulate", "--config", config_path], "km"),
                 "certify": (TestCertify.BASE, "nb")}[command]
    code, out, err = run_cli(capsys, *argv, "--sweep", key + bounds)
    assert (code, out) == (2, "")
    assert err == ("ERROR:usage:sweep must look like key=a:b[:step], integers a <= b and "
                   f"step >= 1, got {key + bounds!r}\n")


@pytest.mark.parametrize("argv", [["simulate", "--config"], ["estimate", "--reports"],
                                  ["calibrate", "--alpha", "0.5", "--kb", "2", "--reports"],
                                  ["calibrate", "--alpha", "0.5", "--kb", "2", "--csv"]],
                         ids=["simulate", "estimate", "calibrate_reports", "calibrate_csv"])
def test_file_that_is_not_utf8_is_a_format_error(capsys, tmp_path, argv):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"\xff" + b"client_id,label,p_0,p_1\n")
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert err == ("ERROR:format:not UTF-8 text: 'utf-8' codec can't decode byte 0xff in "
                   "position 0: invalid start byte\n")


_CERTIFY = ["certify", "--alpha", "0.1", "--beta", "0.05", "--H", "10", "--kb", "9", "--km", "1",
            "--nb", "1000000", "--nm", "1000000"]
_SIX = '{"K": 6, "k_m": 1, "n_per_client": 10, "C": 3'
_PROBS = "client_id,label,p_0,p_1\n0,0,0.6,0.4\n1,1,0.3,0.7\n"

#: case -> (input file name and text, or None; arguments; the one stderr line).
#: Each case runs in its own working directory, where its input file is written.
ERROR_CASES = {
    "config_string_count": (
        ("in.json", '{"K": "ten", "k_m": 1, "n_per_client": 10, "C": 3}'),
        ["simulate", "--config", "in.json"],
        "ERROR:config:K must be an integer >= 2, got 'ten'"),
    "input_nan_sigma": (
        None, [*_CERTIFY, "--sigma", "nan"],
        "ERROR:input:sigma must be a number in [0.0, 2.0], got nan"),
    "format_negative_client_id": (
        ("in.csv", "client_id,label,p_0,p_1\n0,0,0.6,0.4\n-1,1,0.3,0.7\n"),
        ["calibrate", "--csv", "in.csv", "--alpha", "0.5", "--kb", "3"],
        "ERROR:format:in.csv:3: client_id -1 is negative"),
    "input_negative_seed": (
        ("in.csv", _PROBS),
        ["calibrate", "--csv", "in.csv", "--alpha", "0.5", "--kb", "2", "--seed", "-1"],
        "ERROR:input:seed must be an integer >= 0, got -1"),
    "input_calibrate_zero_p": (
        ("in.csv", _PROBS),
        ["calibrate", "--csv", "in.csv", "--alpha", "0.5", "--kb", "2", "--p", "0"],
        "ERROR:input:p must be an integer >= 1, got 0"),
    "input_estimate_zero_p": (
        ("in.jsonl", "".join(f'{{"client_id": {i}, "n": 10, "edges": [0.0, 0.5, 1.0], '
                             f'"v": [0.5, 0.5]}}\n' for i in range(4))),
        ["estimate", "--reports", "in.jsonl", "--p", "0"],
        "ERROR:input:p must be an integer >= 1, got 0"),
    "input_zero_threads": (
        ("in.json", _SIX + "}"),
        ["simulate", "--config", "in.json", "--threads", "0"],
        "ERROR:input:--threads must be an integer >= 1, got 0"),
    "config_removed_key": (
        ("in.json", _SIX + ', "dirichlet_beta": 0.5}'),
        ["simulate", "--config", "in.json"],
        "ERROR:config:unknown config key: 'dirichlet_beta'"),
    "config_removed_attack_field": (
        ("in.json", _SIX + ', "attack": {"kind": "coverage", "direction_override": "mass_high"}}'),
        ["simulate", "--config", "in.json"],
        "ERROR:config:attack: unknown fields: ['direction_override']"),
    "format_nan_edge": (
        ("in.jsonl", "".join(f'{{"client_id": {i}, "n": 10, "edges": [0.0, NaN, 1.0], '
                             f'"v": [0.5, 0.5]}}\n' for i in range(3))),
        ["calibrate", "--reports", "in.jsonl", "--alpha", "0.5", "--kb", "3"],
        "ERROR:format:in.jsonl:1: invalid report: edges must be strictly increasing"),
    "config_string_std": (
        ("in.json", _SIX + ', "attack": {"kind": "gaussian", "gaussian_std": "x"}}'),
        ["simulate", "--config", "in.json"],
        "ERROR:config:attack: gaussian_std must be a number in (0.0, inf), got 'x'"),
    "config_boolean_signal": (
        ("in.json", _SIX + ', "signal": true}'),
        ["simulate", "--config", "in.json"],
        "ERROR:config:signal must be a number in (-inf, inf), got True"),
    "usage_stray_flag": (
        None, [*_CERTIFY, "--kb-reported", "12"],
        "ERROR:usage:--kb-reported goes with --variant overestimate, and only with it"),
    "usage_removed_max_iter": (
        None, ["estimate", "--reports", "in.jsonl", "--max-iter", "3"],
        "ERROR:usage:unrecognized arguments: --max-iter 3"),
}


def _run_module(work_dir: Path, case) -> subprocess.CompletedProcess:
    infile, argv, _ = case
    work_dir.mkdir()
    if infile is not None:
        (work_dir / infile[0]).write_text(infile[1])
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-m", "robfcp.cli", *argv], cwd=work_dir, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def module_runs(tmp_path_factory):
    """Every error case's process, four at a time: each start-up imports numpy."""
    root = tmp_path_factory.mktemp("cli_errors")
    with ThreadPoolExecutor(4) as pool:
        runs = pool.map(lambda item: _run_module(root / item[0], item[1]), ERROR_CASES.items())
        return dict(zip(ERROR_CASES, runs))


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_module_error_line(module_runs, case):
    """Bad input exits 2 with exactly one ERROR:<code>: line and no output."""
    run = module_runs[case]
    assert (run.returncode, run.stdout, run.stderr) == (2, "", ERROR_CASES[case][2] + "\n")
