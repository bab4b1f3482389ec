"""Forged client reports used to stress the calibration pipeline.

A malicious client can put anything in its characterization vector; only its
sample count ``n`` is trusted (taken by the server from enrollment metadata).
``none`` sends the client's own honest report unchanged.  Four forgeries,
named by the failure they induce, need nothing beyond the reports it sees:

* ``coverage``  — point mass in the lowest bin.  Pulls the pooled rank down,
  deflating the threshold and the achieved coverage.
* ``efficiency`` — point mass in the highest bin.  Pushes the threshold to its
  maximum so prediction sets contain every label.
* ``gaussian``  — K.v_own, the expected histogram of the client's own scores x
  noised to y = clip(x + N(0, std^2), 0, 1): a blunter distortion either
  way.  K takes x uniform within its bin: exact in ``histogram_direct``
  mode, an approximation in ``sample`` mode.  With G(t) = t Phi(t) + phi(t),
  row [a, b] of K puts (std / (b - a)) (G((c - a) / std) - G((c - b) / std))
  at or below an interior edge c, and the mass clipped past 0 or 1 in the
  end bins.
* ``mimic``     — an exact copy of a uniformly chosen benign report's vector,
  indistinguishable by any report-space screen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError, _real
from .sketch import ClientReport, validate_edges

ATTACK_KINDS = ("none", "coverage", "efficiency", "gaussian", "mimic")
#: The kinds that forge from the attacker's own honest report, passed as ``own_report``.
OWN_REPORT_KINDS = ("none", "gaussian")
#: The kinds that draw from the generator passed to :func:`apply_attack`.
DRAWING_KINDS = ("mimic",)


@dataclass(frozen=True)
class AttackSpec:
    """What a malicious client reports; ``gaussian_std`` is read by ``gaussian`` alone."""

    kind: str = "none"
    gaussian_std: float = 0.5

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise InputError(f"unknown attack kind {self.kind!r}, expected one of {ATTACK_KINDS}")
        object.__setattr__(self, "gaussian_std", _real("gaussian_std", self.gaussian_std, 0.0))


def _cdf_integral(t: np.ndarray) -> np.ndarray:
    """G(t) = t Phi(t) + phi(t); ``erfc`` keeps Phi's lower tail accurate."""
    cdf = np.array([0.5 * math.erfc(-x / math.sqrt(2.0)) for x in t.tolist()])
    return t * cdf + np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


@lru_cache(maxsize=8)
def _gaussian_kernel(edges: tuple, std: float) -> np.ndarray:
    """The ``gaussian`` forgery's K (identity at ``std = 0``), read-only and built once.

    Rows are built one at a time, in O(H) scratch memory and without BLAS.
    """
    kernel = np.eye(len(edges) - 1)
    if std > 0.0:
        inner = np.array(edges[1:-1])
        upper = _cdf_integral((inner - edges[0]) / std)
        for i in range(len(edges) - 1):
            lower = _cdf_integral((inner - edges[i + 1]) / std)
            cdf = np.clip(std / (edges[i + 1] - edges[i]) * (upper - lower), 0.0, 1.0)
            # Rounding must not make the CDF step down: that would be a negative entry.
            kernel[i] = np.diff(np.maximum.accumulate(cdf), prepend=0.0, append=1.0)
            upper = lower
    kernel.flags.writeable = False
    return kernel


def apply_attack(spec: AttackSpec, client_id: int, n: int, edges, rng: np.random.Generator | None,
                 own_report: ClientReport | None = None, benign_reports=None) -> ClientReport:
    """The report a malicious client submits, with its trusted sample count ``n``.

    ``own_report``, the report the attacker would send if honest, is read by
    :data:`OWN_REPORT_KINDS` alone, ``rng`` by :data:`DRAWING_KINDS`, and
    ``benign_reports``, the honest reports on the wire, by ``mimic``.
    """
    if rng is None and spec.kind in DRAWING_KINDS:
        raise InputError(f"the {spec.kind} attack draws from a generator, got rng=None")
    e = validate_edges(edges)
    if spec.kind in ("coverage", "efficiency"):
        v = np.zeros(e.size - 1)
        v[0 if spec.kind == "coverage" else -1] = 1.0
        return ClientReport(client_id=client_id, n=n, v=v, edges=e)
    if spec.kind == "mimic":
        reports = list(benign_reports or ())
        if not reports:
            raise InputError("the mimic attack requires at least one benign report to copy")
        source = reports[int(rng.integers(len(reports)))]
    elif own_report is None:
        raise InputError(f"the {spec.kind} attack requires the client's own report")
    else:
        source = own_report
    if not (source.edges is e or np.array_equal(source.edges, e)):
        raise InputError(f"the {spec.kind} attack's source report uses different bin edges")
    v = source.v
    if spec.kind == "gaussian":
        v = (v[:, None] * _gaussian_kernel(tuple(e.tolist()), spec.gaussian_std)).sum(axis=0)
    return ClientReport(client_id=client_id, n=n, v=v, edges=e)
