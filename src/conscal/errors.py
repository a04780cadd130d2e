"""Exception types shared across the toolkit, and the checks that raise them.

The CLI maps these onto its exit-status convention: any :class:`DataError`
(including subclasses) exits with status 1, OS-level problems such as missing
files exit with status 2.
"""

from __future__ import annotations

import json
import math
from typing import Any


class DataError(Exception):
    """Input data or requested configuration is invalid."""


class ConfigError(DataError):
    """A run configuration that cannot be satisfied by the given data."""


class RecordError(DataError):
    """A record file failed validation.

    ``path`` and ``line`` locate the first offending record when known.
    """

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None):
        super().__init__(message)
        self.path = path
        self.line = line


def json_error_reason(exc: ValueError | RecursionError) -> str:
    """Why decoding JSON text raised ``exc``, for an ``invalid JSON (...)`` message."""
    if isinstance(exc, json.JSONDecodeError):
        return exc.msg
    if isinstance(exc, RecursionError):
        return "nested too deeply"
    if isinstance(exc, UnicodeError):  # reading the file, not parsing it
        return "not UTF-8 text"
    return "integer too long"  # an integer literal past int's digit limit


def is_finite_real(value: Any) -> bool:
    """True for an int or float that is finite as a float; a bool is not a number here."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


# The largest count or dimension a setting may ask for.  With every size at
# most this, the largest array a run builds, queries x samples x embedding
# dimension x 2 groups, has at most 2**61 entries, fewer than numpy can index
# on a 64-bit host (2**63 - 1).
MAX_SIZE = 2**20


def require_integer(name: str, value: Any, minimum: int | None = None) -> None:
    """Raise :class:`ConfigError` unless the setting ``name`` is an int (not a
    bool) and, when ``minimum`` is given, at least ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")


def require_size(name: str, value: Any) -> None:
    """Raise :class:`ConfigError` unless the setting ``name``, a count or a
    dimension, is an int from 1 to :data:`MAX_SIZE`."""
    require_integer(name, value, 1)
    if value > MAX_SIZE:
        raise ConfigError(f"{name} must be <= {MAX_SIZE}, got {value}")


def require_real(name: str, value: Any) -> None:
    """Raise :class:`ConfigError` unless the setting ``name`` is a finite real."""
    if not is_finite_real(value):
        raise ConfigError(f"{name} must be a finite real, got {value!r}")
