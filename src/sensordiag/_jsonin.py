"""The one reader of the JSON files that come from outside the program, the
config and the model: a file parsed into an object, and typed value checks."""

from __future__ import annotations

import json
import math
from pathlib import Path


def read_object(path, error: type[Exception], label: str) -> dict:
    """The JSON object in ``path``; every read or parse failure raises
    ``error(f"{label}: {reason}")``."""
    try:
        value = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise error(f"{label}: file not found") from None
    except UnicodeDecodeError:
        raise error(f"{label}: not UTF-8 text") from None
    except (OSError, ValueError, RecursionError) as exc:
        # JSONDecodeError, an over-long integer, deep nesting, a directory
        raise error(f"{label}: {exc}") from None
    if not isinstance(value, dict):
        raise error(f"{label}: top-level JSON object expected")
    return value


def real(value) -> bool:
    """JSON number that converts to a finite float; ``bool`` is not a number."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer beyond float range
        return False


def integer(value, lo: float = -math.inf, hi: float = math.inf) -> bool:
    """JSON integer in ``[lo, hi]``; ``bool`` and ``1.0`` are not integers."""
    return type(value) is int and lo <= value <= hi


def list_of(value, check) -> bool:
    """Non-empty JSON array whose every item passes ``check``."""
    return isinstance(value, list) and len(value) > 0 and all(map(check, value))
