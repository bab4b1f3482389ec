"""Forged client reports used to stress the calibration pipeline.

A malicious client can put anything in its characterization vector; only its
sample count ``n`` is trusted (taken by the server from enrollment metadata).
Four forgeries are implemented, named by the failure they induce:

* ``coverage``  — point mass in the lowest bin.  Pulls the pooled rank down,
  deflating the threshold and the achieved coverage.
* ``efficiency`` — point mass in the highest bin.  Pushes the threshold to its
  maximum so prediction sets contain every label.
* ``gaussian``  — the client's real scores plus clipped N(0, std^2) noise,
  re-histogrammed: a blunter distortion in either direction.
* ``mimic``     — an exact copy of a uniformly chosen benign report's vector,
  indistinguishable by any report-space screen.

Each kind fixes its forgery; ``gaussian_std`` is read by ``gaussian`` alone.
``none`` and ``gaussian`` read the attacker's own scores
(:data:`OWN_SCORE_KINDS`), ``gaussian`` and ``mimic`` draw from a generator
(:data:`DRAWING_KINDS`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, _real
from .sketch import ClientReport, histogram_characterize, validate_edges

ATTACK_KINDS = ("none", "coverage", "efficiency", "gaussian", "mimic")
#: The kinds that histogram the attacker's own scores, passed as ``benign_scores``.
OWN_SCORE_KINDS = ("none", "gaussian")
#: The kinds that draw from the generator passed to :func:`apply_attack`.
DRAWING_KINDS = ("gaussian", "mimic")


@dataclass(frozen=True)
class AttackSpec:
    """What a malicious client reports."""

    kind: str = "none"
    gaussian_std: float = 0.5

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise InputError(f"unknown attack kind {self.kind!r}, expected one of {ATTACK_KINDS}")
        object.__setattr__(self, "gaussian_std", _real("gaussian_std", self.gaussian_std, 0.0))


def apply_attack(spec: AttackSpec, client_id: int, n: int, edges, rng: np.random.Generator | None,
                 benign_scores=None, benign_reports=None) -> ClientReport:
    """Produce the report a malicious client submits.

    ``benign_scores`` is the attacker's own raw score set (required for
    :data:`OWN_SCORE_KINDS`); ``benign_reports`` is the list of honest reports
    visible on the wire (required for ``mimic``).  ``n`` is the trusted sample
    count and is carried into the report unchanged.  ``rng`` may be None for a
    kind not in :data:`DRAWING_KINDS`.
    """
    if rng is None and spec.kind in DRAWING_KINDS:
        raise InputError(f"the {spec.kind} attack draws from a generator, got rng=None")
    e = validate_edges(edges)

    if spec.kind in OWN_SCORE_KINDS:
        scores = np.asarray(benign_scores if benign_scores is not None else [], dtype=float)
        if scores.size == 0:
            raise InputError(f"the {spec.kind} attack requires the client's own scores")
        if spec.kind == "gaussian":
            scores = np.clip(scores + rng.normal(0.0, spec.gaussian_std, scores.size), 0.0, 1.0)
        return ClientReport(client_id=client_id, n=n, v=histogram_characterize(scores, e), edges=e)

    if spec.kind in ("coverage", "efficiency"):
        v = np.zeros(e.size - 1)
        v[0 if spec.kind == "coverage" else -1] = 1.0
        return ClientReport(client_id=client_id, n=n, v=v, edges=e)

    # mimic
    reports = list(benign_reports) if benign_reports is not None else []
    if not reports:
        raise InputError("the mimic attack requires at least one benign report to copy")
    source = reports[int(rng.integers(len(reports)))]
    if not (source.edges is e or np.array_equal(source.edges, e)):
        raise InputError("mimic source report uses different bin edges")
    return ClientReport(client_id=client_id, n=n, v=source.v, edges=e)
