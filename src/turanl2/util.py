"""Small shared helpers: exact rationals in text and deterministic JSON."""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .errors import InvalidArgument

_JSON_INT_LIMIT = 1 << 53


def parse_fraction(text: str) -> Fraction:
    """Parse an exact rational given as 'p', 'p/q', or a decimal literal."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidArgument(f"not an exact rational: {text!r}") from exc


def frac_str(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def jsonable(obj: Any) -> Any:
    """Recursively convert report values to JSON-safe, exact encodings.

    Fractions become 'p/q' strings; integers beyond 2**53 become decimal
    strings so consumers with float-backed JSON parsers stay exact.
    """
    if isinstance(obj, bool) or obj is None or isinstance(obj, (str, float)):
        return obj
    if isinstance(obj, Fraction):
        return frac_str(obj)
    if isinstance(obj, int):
        return str(obj) if abs(obj) >= _JSON_INT_LIMIT else obj
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = list(obj)
        if isinstance(obj, (set, frozenset)):
            items = sorted(items)
        return [jsonable(v) for v in items]
    if hasattr(obj, "to_json_dict"):
        return jsonable(obj.to_json_dict())
    raise TypeError(f"cannot encode {type(obj).__name__} into a report")


def dump_json(obj: Any, indent: int = 2) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, exact values."""
    return json.dumps(jsonable(obj), indent=indent, sort_keys=True)
