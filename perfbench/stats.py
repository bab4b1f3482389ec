"""Order statistics used by the benchmark's timing metrics."""

from __future__ import annotations

#: The tail percentile must leave at least this many samples above it.
TAIL_BEYOND = 10


def tail(values) -> dict:
    """Highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    With n sorted samples this is the (n - 10)-th smallest value, at
    percentile 100 * (n - 10) / n.  Needs n > 10.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples for a tail percentile, got {n}")
    rank = n - TAIL_BEYOND
    return {"value": ordered[rank - 1], "percentile": 100.0 * rank / n,
            "beyond": n - rank, "samples": n}
