"""The README's examples run, and its config table matches the config schema."""

import re
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from robfcp.simulation import SimulationConfig

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
