"""Exception types shared across the package.

Every error raised on a user-facing path carries a short machine-readable
``code`` so the CLI can emit ``ERROR:<code>:<message>`` lines.

:func:`_integer` and :func:`_real` are the one check for a number that comes
from outside (a config key, a CLI flag, a public argument): modules call them
rather than compare by hand, so a boolean, a string, NaN or an out-of-range
value is the same named error everywhere.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


class RobfcpError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


class InputError(RobfcpError):
    """A caller-supplied value violates a documented precondition."""

    code = "input"


class FormatError(RobfcpError):
    """A file (config, report JSONL, score CSV) is malformed."""

    code = "format"


class ConfigError(InputError):
    """A simulation config is inconsistent or contains unknown keys."""

    code = "config"


def _integer(name: str, value, low: int, high: int | None = None,
             error: type[InputError] = InputError) -> int:
    """``value`` as an int in [low, high), or ``error`` naming the field: never a ValueError.

    A boolean is not a count, so ``True`` is rejected rather than read as 1.
    """
    try:
        ok = (not isinstance(value, (bool, np.bool_)) and int(value) == value
              and low <= value and (high is None or value < high))
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        bounds = f">= {low}" if high is None else f"in [{low}, {high})"
        raise error(f"{name} must be an integer {bounds}, got {value!r}")
    return int(value)


def _real(name: str, value, low: float = -math.inf, high: float = math.inf,
          error: type[InputError] = InputError, *, closed: bool = False) -> float:
    """``value`` as a float in (low, high), or in [low, high] when ``closed``.

    Otherwise ``error`` naming the field, never a TypeError or ValueError.  A
    boolean, a string and NaN are rejected; so is an infinity, unless a closed
    bound is infinite.
    """
    try:
        ok = isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_)) and (
            low <= float(value) <= high if closed else low < float(value) < high)
    except OverflowError:
        ok = False
    if not ok:
        interval = f"[{low}, {high}]" if closed else f"({low}, {high})"
        raise error(f"{name} must be a number in {interval}, got {value!r}")
    return float(value)
