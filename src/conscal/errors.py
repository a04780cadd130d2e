"""Exception types shared across the toolkit.

The CLI maps these onto its exit-status convention: any :class:`DataError`
(including subclasses) exits with status 1, OS-level problems such as missing
files exit with status 2.
"""

from __future__ import annotations

import json


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
    if isinstance(exc, UnicodeDecodeError):  # reading the file, not parsing it
        return "not UTF-8 text"
    return "integer too long"  # an integer literal past int's digit limit
