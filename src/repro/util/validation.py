"""Argument-validation helpers.

The public API validates its inputs eagerly so misuse fails at the call site
with a clear message instead of deep inside a simulation loop.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

__all__ = [
    "check_positive",
    "check_nonnegative",
    "check_finite",
    "check_fraction",
    "check_type",
    "check_in",
]


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0``; return it as float."""
    v = float(value)
    if not v > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return v


def check_nonnegative(name: str, value: float) -> float:
    """Require ``value >= 0`` (NaN fails); return it as float."""
    v = float(value)
    if not v >= 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return v


def check_finite(name: str, value: float) -> float:
    """Require a finite ``value`` (NaN and ±inf fail); return it as float."""
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return v


def check_fraction(name: str, value: float) -> float:
    """Require ``0 <= value <= 1``; return it as float."""
    v = float(value)
    if not (0.0 <= v <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return v


def check_type(name: str, value: Any, expected: type | tuple[type, ...]) -> Any:
    """Require ``isinstance(value, expected)``; return it."""
    if not isinstance(value, expected):
        exp = (
            expected.__name__
            if isinstance(expected, type)
            else "/".join(t.__name__ for t in expected)
        )
        raise TypeError(f"{name} must be {exp}, got {type(value).__name__}")
    return value


def check_in(name: str, value: Any, allowed: Iterable[Any]) -> Any:
    """Require ``value in allowed``; return it."""
    allowed = list(allowed)
    if value not in allowed:
        raise ValueError(f"{name} must be one of {allowed!r}, got {value!r}")
    return value
