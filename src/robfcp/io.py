"""File formats: report JSONL, score CSV, and simulation config JSON."""

from __future__ import annotations

import csv
import json
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np

from .attacks import AttackSpec
from .errors import ConfigError, FormatError, InputError, _integer
from .scores import score_batch, validate_probabilities
from .simulation import SimulationConfig
from .sketch import ClientReport, report_from_json, sketch_scores, uniform_bin_edges


def read_reports(path) -> list[ClientReport]:
    """Read a JSONL report file, pointing at the offending line on errors."""
    reports = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                reports.append(report_from_json(line))
            except FormatError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
    if not reports:
        raise FormatError(f"{path}: no reports found")
    ids = [r.client_id for r in reports]
    if len(set(ids)) != len(ids):
        raise FormatError(f"{path}: duplicate client ids")
    return reports


def read_probability_csv(path) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Parse rows of ``client_id,label,p_0,...,p_{C-1}``.

    Returns a mapping client_id -> (probability matrix, labels), preserving
    row order within each client.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(header) < 4 or header[0] != "client_id" or header[1] != "label":
            raise FormatError(f"{path}: header must be client_id,label,p_0,...,p_(C-1)")
        num_classes = len(header) - 2
        expected = [f"p_{j}" for j in range(num_classes)]
        if header[2:] != expected:
            raise FormatError(f"{path}: probability columns must be named p_0..p_{num_classes - 1}")
        rows: dict[int, list[tuple[int, list[float]]]] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise FormatError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                cid = int(row[0])
                label = int(row[1])
                probs = [float(x) for x in row[2:]]
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
            if cid < 0:
                raise FormatError(f"{path}:{lineno}: client_id {cid} is negative")
            if not 0 <= label < num_classes:
                raise FormatError(f"{path}:{lineno}: label {label} outside [0, {num_classes - 1}]")
            rows.setdefault(cid, []).append((label, probs))
    if not rows:
        raise FormatError(f"{path}: no data rows")
    out = {}
    for cid, pairs in rows.items():
        labels = np.array([y for y, _ in pairs], dtype=int)
        probs = np.array([p for _, p in pairs], dtype=float)
        try:
            probs = validate_probabilities(probs)
        except Exception as exc:
            raise FormatError(f"{path}: client {cid}: {exc}") from None
        out[cid] = (probs, labels)
    return out


def reports_from_csv(path, score_kind: str = "lac", num_bins: int = 100,
                     seed: int = 0) -> list[ClientReport]:
    """Score every CSV row and sketch each client's scores on a uniform grid.

    ``aps`` randomization for client ``cid`` comes from a generator keyed by
    ``(seed, cid)``; ``seed`` must be a non-negative integer even when nothing
    is drawn.
    """
    seed = _integer("seed", seed, 0)
    edges = uniform_bin_edges(num_bins)
    per_client = read_probability_csv(path)
    reports = []
    for cid in sorted(per_client):
        probs, labels = per_client[cid]
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(cid,)))
        reports.append(sketch_scores(cid, score_batch(probs, labels, score_kind, rng), edges))
    return reports


# --- simulation config files ---

_CONFIG_KEYS = tuple(f.name for f in fields(SimulationConfig))
_REQUIRED_KEYS = tuple(f.name for f in fields(SimulationConfig)
                       if f.default is MISSING and f.default_factory is MISSING)
_ATTACK_KEYS = frozenset(f.name for f in fields(AttackSpec))
#: Per-client tuples that the echo writes as one scalar when every client shares it.
_PER_CLIENT_KEYS = ("n_per_client", "signal")


def _attack_from_value(value) -> AttackSpec:
    if isinstance(value, str):
        value = {"kind": value}
    if not isinstance(value, dict):
        raise ConfigError(f"attack must be a string or object, got {type(value).__name__}")
    extra = set(value) - _ATTACK_KEYS
    if extra:
        raise ConfigError(f"attack: unknown fields: {sorted(extra)}")
    try:
        return AttackSpec(**value)
    except InputError as exc:
        raise ConfigError(f"attack: {exc}") from None


def config_from_dict(payload: dict) -> SimulationConfig:
    """Build a validated config from parsed JSON, rejecting unknown keys by name."""
    if not isinstance(payload, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(payload) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key: {sorted(unknown)[0]!r}")
    missing = [k for k in _REQUIRED_KEYS if k not in payload]
    if missing:
        raise ConfigError(f"config missing required key: {missing[0]!r}")
    values = dict(payload)
    if "attack" in values:
        values["attack"] = _attack_from_value(values["attack"])
    if "seed" not in values:
        # A random 63-bit seed; config_echo records it, so the run can be replayed.
        values["seed"] = int(np.random.SeedSequence().entropy % (2 ** 63))
    try:
        return SimulationConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def parse_config(path) -> SimulationConfig:
    """Load and validate a simulation config JSON file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return config_from_dict(payload)


def config_echo(config: SimulationConfig) -> dict:
    """Fully resolved config as a JSON-ready dict; re-parsing it reproduces the run."""
    echo = {}
    for name in _CONFIG_KEYS:
        value = getattr(config, name)
        if name in _PER_CLIENT_KEYS:
            value = value[0] if len(set(value)) == 1 else list(value)
        elif name == "attack":
            value = asdict(value)
        echo[name] = value
    return echo
