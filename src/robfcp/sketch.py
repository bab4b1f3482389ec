"""Histogram sketches of client score sets.

Instead of shipping raw calibration scores, each client reports a
*characterization vector*: the normalized histogram of its scores over a
shared bin grid on [0, 1].  Bins are half-open ``[a_{h-1}, a_h)`` except the
last, which also contains its right edge so a score of exactly 1.0 is counted.

The module also defines the one-report-per-line JSON wire format used by the
CLI and a count-reconstruction routine that turns a reported vector back into
integer bin counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FormatError, InputError, _integer

# Reported vectors must sum to one within this absolute tolerance.
VECTOR_ATOL = 1e-9


def uniform_bin_edges(num_bins: int) -> np.ndarray:
    """Edges 0, 1/H, ..., 1 of a uniform H-bin grid on [0, 1]."""
    num_bins = _integer("num_bins", num_bins, 1)
    return np.arange(num_bins + 1, dtype=float) / num_bins


def validate_edges(edges) -> np.ndarray:
    e = np.asarray(edges, dtype=float)
    if e.ndim != 1 or e.size < 2:
        raise InputError("edges must be a 1-d array of at least 2 values")
    if e[0] != 0.0 or e[-1] != 1.0:
        raise InputError("edges must start at 0.0 and end at 1.0")
    if not (e[1:] > e[:-1]).all():  # also False for a NaN edge
        raise InputError("edges must be strictly increasing")
    return e


def histogram_characterize(scores, edges) -> np.ndarray:
    """Normalized histogram of ``scores`` over ``edges``; entries sum to 1."""
    e = validate_edges(edges)
    s = np.asarray(scores, dtype=float)
    if s.size == 0:
        raise InputError("cannot characterize an empty score set")
    if not np.all(np.isfinite(s)) or s.min() < 0.0 or s.max() > 1.0:
        raise InputError("scores must lie in [0, 1]")
    counts, _ = np.histogram(s, bins=e)
    return counts / s.size


@dataclass(frozen=True, eq=False)
class ClientReport:
    """One client's sketched calibration set: id, trusted sample count, grid, read-only vector."""

    client_id: int
    n: int
    v: np.ndarray
    edges: np.ndarray

    def __post_init__(self):
        client_id, n = _integer("client_id", self.client_id, 0), _integer("n", self.n, 1)
        edges = validate_edges(self.edges)
        v = np.array(self.v, dtype=float)
        if v.shape != (edges.size - 1,):
            raise InputError(f"vector of shape {v.shape} does not match {edges.size - 1} bins")
        if not np.isfinite(v).all() or v.min() < 0.0:
            raise InputError("characterization entries must be finite and non-negative")
        if abs(v.sum() - 1.0) > VECTOR_ATOL:
            raise InputError("characterization entries must sum to 1 within 1e-9")
        v.flags.writeable = False
        object.__setattr__(self, "client_id", client_id)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "edges", edges)

    @property
    def num_bins(self) -> int:
        return self.v.size

    @cached_property
    def counts(self) -> np.ndarray:
        """:func:`reconstruct_counts` of this report, computed once: ``v`` is a read-only copy."""
        return reconstruct_counts(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClientReport):
            return NotImplemented
        return (self.client_id == other.client_id and self.n == other.n
                and np.array_equal(self.v, other.v)
                and np.array_equal(self.edges, other.edges))


def shared_edges(reports) -> np.ndarray:
    """The bin edges every report in ``reports`` shares (compared by identity, then value)."""
    edges = reports[0].edges
    if not all(r.edges is edges or np.array_equal(r.edges, edges) for r in reports[1:]):
        raise InputError("all reports must share the same bin edges")
    return edges


def sketch_scores(client_id: int, scores, edges) -> ClientReport:
    """Honest report: histogram-characterize ``scores`` on ``edges``."""
    s = np.asarray(scores, dtype=float)
    return ClientReport(client_id=client_id, n=int(s.size),
                        v=histogram_characterize(s, edges), edges=np.asarray(edges, dtype=float))


def reconstruct_counts(report: ClientReport) -> np.ndarray:
    """Integer bin counts implied by a report: round(v_h * n), forced to sum to n.

    Halves round down, and any residual left by rounding is applied to the
    largest-mass bin (lowest index on ties).  A report built honestly from n
    samples reconstructs its exact counts; inconsistent (malicious) reports
    still yield non-negative counts summing to n, spilling the residual onto
    the next-largest bins if the largest cannot absorb it.
    """
    raw = report.v * report.n
    counts = np.ceil(raw - 0.5).astype(np.int64)  # round, halves down
    residual = report.n - int(counts.sum())
    if residual != 0:
        # bins ordered by mass (descending), index ascending on ties
        order = np.lexsort((np.arange(report.num_bins), -report.v))
        for b in order:
            if residual == 0:
                break
            take = max(residual, -int(counts[b]))
            counts[b] += take
            residual -= take
    return counts


# --- wire format: one JSON object per report, fixed field order ---

def report_to_json(report: ClientReport) -> str:
    """Serialize a report as one JSON line.

    Field order is fixed (client_id, n, edges, v) and floats use Python's
    shortest round-tripping repr, so every value survives parse/serialize
    without precision loss.
    """
    payload = {
        "client_id": report.client_id,
        "n": report.n,
        "edges": [float(x) for x in report.edges],
        "v": [float(x) for x in report.v],
    }
    return json.dumps(payload)


def report_from_json(line: str) -> ClientReport:
    """Parse one JSON report line, rejecting malformed or inconsistent payloads."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON in report line: {exc}") from None
    if not isinstance(payload, dict):
        raise FormatError("report line must be a JSON object")
    missing = {"client_id", "n", "edges", "v"} - set(payload)
    if missing:
        raise FormatError(f"report line missing fields: {sorted(missing)}")
    extra = set(payload) - {"client_id", "n", "edges", "v"}
    if extra:
        raise FormatError(f"report line has unknown fields: {sorted(extra)}")
    try:
        return ClientReport(client_id=payload["client_id"], n=payload["n"],
                            v=np.asarray(payload["v"], dtype=float),
                            edges=np.asarray(payload["edges"], dtype=float))
    except (InputError, TypeError, ValueError) as exc:
        raise FormatError(f"invalid report: {exc}") from None
