"""The README's examples run, and its config table and CSV columns match the code."""

import re
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from robfcp.simulation import SimulationConfig, run_trial, trial_columns

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)

#: One config-table row: the key in backticks, in bold when it is required.
_KEY_ROW = re.compile(r"^\| (\*\*)?`(\w+)`(\*\*)? \|", flags=re.MULTILINE)


def test_readme_has_python_examples():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_python_block_runs(index):
    exec(compile(PYTHON_BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_config_table_matches_simulation_config_fields():
    table = README.split("| key | meaning | default |", 1)[1].split("\n\n", 1)[0]
    rows = [(m.group(2), m.group(1) == m.group(3) == "**") for m in _KEY_ROW.finditer(table)]
    expected = [(f.name, f.default is MISSING and f.default_factory is MISSING)
                for f in fields(SimulationConfig)]
    assert rows == expected


def test_csv_column_sentence_matches_trial_columns():
    sentence = re.search(r"The CSV is one row per\s+trial: `([^`]*)`", README)
    trial = run_trial(SimulationConfig(K=4, k_m=1, n_per_client=50, C=3, H=10, n_test=50), 0)
    assert sentence.group(1) == ",".join(["trial", "attack", *trial_columns(trial)])
