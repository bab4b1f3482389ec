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
  end bins.  Only the uniform grid of ``uniform_bin_edges(H)`` is accepted:
  there K is Toeplitz, so K.v is one convolution in O(H) memory.
* ``mimic``     — an exact copy of a uniformly chosen benign report's vector,
  indistinguishable by any report-space screen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, _real
from .sketch import ClientReport, uniform_bin_edges, validate_edges

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


def _gaussian_forgery(v: np.ndarray, edges: np.ndarray, std: float) -> np.ndarray:
    """K.v in O(H) memory: on uniform edges K is Toeplitz, so K.v is one convolution.

    Row i of K puts (std H) (G((m - i) / (H std)) - G((m - i - 1) / (H std)))
    at or below edge m / H, the interior-edge CDF of the module docstring.
    """
    h = v.size
    if not np.array_equal(edges, uniform_bin_edges(h)):
        raise InputError("the gaussian attack needs the uniform grid of uniform_bin_edges(H)")
    steps = (std * h) * np.diff(_cdf_integral(np.arange(-h, h + 1) / (h * std)))
    cdf = np.clip(np.convolve(v, steps)[h:2 * h - 1], 0.0, 1.0)
    # Rounding must not make the CDF step down: that would be a negative entry.
    return np.diff(np.maximum.accumulate(cdf), prepend=0.0, append=1.0)


def apply_attack(spec: AttackSpec, client_id: int, n: int, edges, rng: np.random.Generator | None,
                 own_report: ClientReport | None = None, benign_reports=None) -> ClientReport:
    """The report a malicious client submits, with its trusted sample count ``n``.

    ``own_report``, the report the attacker would send if honest, is read by
    :data:`OWN_REPORT_KINDS` alone, ``rng`` by :data:`DRAWING_KINDS`, and
    ``benign_reports``, the honest reports on the wire, by ``mimic``.
    ``gaussian`` raises :class:`InputError` unless ``edges`` equal
    ``uniform_bin_edges(H)``.
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
        v = _gaussian_forgery(v, e, spec.gaussian_std)
    return ClientReport(client_id=client_id, n=n, v=v, edges=e)
