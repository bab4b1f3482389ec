"""Exception types shared across the package.

Every error raised on a user-facing path carries a short machine-readable
``code`` so the CLI can emit ``ERROR:<code>:<message>`` lines.
"""

from __future__ import annotations


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
        ok = (not isinstance(value, bool) and int(value) == value
              and low <= value and (high is None or value < high))
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        bounds = f">= {low}" if high is None else f"in [{low}, {high})"
        raise error(f"{name} must be an integer {bounds}, got {value!r}")
    return int(value)
