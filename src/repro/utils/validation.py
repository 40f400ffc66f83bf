"""Argument-validation helpers used across the library.

These raise :class:`repro.errors.ValidationError` (a ``ValueError``
subclass) with uniform, greppable messages.
"""

from __future__ import annotations

import math
from collections.abc import Collection
from numbers import Integral, Real

from repro.errors import ValidationError


def check_positive(value: float, name: str) -> float:
    """Require ``value`` to be a real number strictly greater than zero."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise ValidationError(f"{name} must be a number, got {type(value).__name__}")
    if not value > 0:
        raise ValidationError(f"{name} must be > 0, got {value!r}")
    return float(value)


def check_seconds(value: float, name: str) -> float:
    """Require ``value`` to be a finite number of seconds, > 0.

    NaN and infinities pass a bare ``<= 0`` check, then fail far from
    the setting: socket timeouts and ``time.sleep`` raise on them, and a
    wait of ``max(0.0, nan)`` is no wait at all.
    """
    if isinstance(value, Real) and not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return check_positive(value, name)


def check_positive_int(value: int, name: str) -> int:
    """Require ``value`` to be an integer strictly greater than zero."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValidationError(f"{name} must be > 0, got {value!r}")
    return int(value)


def check_fraction(value: float, name: str, *, inclusive: bool = True) -> float:
    """Require ``value`` to lie in ``[0, 1]`` (or ``(0, 1)`` if not inclusive)."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise ValidationError(f"{name} must be a number, got {type(value).__name__}")
    value = float(value)
    if inclusive:
        if not 0.0 <= value <= 1.0:
            raise ValidationError(f"{name} must be in [0, 1], got {value!r}")
    else:
        if not 0.0 < value < 1.0:
            raise ValidationError(f"{name} must be in (0, 1), got {value!r}")
    return value


def check_in_options(value: str, name: str, options: Collection[str]) -> str:
    """Require ``value`` to be one of ``options``."""
    if value not in options:
        allowed = ", ".join(sorted(options))
        raise ValidationError(f"{name} must be one of {{{allowed}}}, got {value!r}")
    return value
