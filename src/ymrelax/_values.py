"""Strict numeric conversions shared by matrix coercion, the energy
parameter specs and the CLI config schema: booleans are not numbers, and
an integer beyond the float range raises OverflowError."""

from __future__ import annotations

import math
import numbers


def real(above: float | None = None, least: float | None = None,
         below: float | None = None):
    """Converter to a finite float, bounded below strictly by `above` or
    inclusively by `least`, and above strictly by `below`, when given."""
    def convert(value) -> float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise TypeError(f"expected a number, got {type(value).__name__}")
        x = float(value)
        if not math.isfinite(x):
            raise ValueError(f"expected a finite number, got {x}")
        if above is not None and not x > above:
            raise ValueError(f"must be above {above:g}, got {x:g}")
        if least is not None and x < least:
            raise ValueError(f"must be at least {least:g}, got {x:g}")
        if below is not None and not x < below:
            raise ValueError(f"must be below {below:g}, got {x:g}")
        return x
    return convert


as_real = real()


def integer(least: int | None = None):
    """Converter to an int, at least `least` when given."""
    def convert(value) -> int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise TypeError(f"expected an integer, got {type(value).__name__}")
        as_real(value)
        if least is not None and value < least:
            raise ValueError(f"must be at least {least}, got {value}")
        return int(value)
    return convert
