"""Bit-exact serialization helpers: rationals as "num/den" strings, stable JSON.

Every rational that crosses a file or process boundary travels as a canonical
"num/den" string so that cache hits and certificate round-trips are
byte-identical to recomputation.
"""

from __future__ import annotations

import json
from fractions import Fraction
from numbers import Rational


def rat_to_str(x) -> str:
    """Canonical "num/den" form, denominator always present and positive."""
    if type(x) is int:
        return f"{x}/1"
    if not isinstance(x, Rational):
        raise TypeError(f"expected a rational, got {type(x).__name__}")
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def rat_from_str(s: str) -> Fraction:
    """Parse "num/den" or a bare integer string; ValueError on a zero
    denominator, TypeError on anything but a string."""
    if not isinstance(s, str):
        raise TypeError(f"expected a rational string, got {type(s).__name__}")
    num, slash, den = s.strip().partition("/")
    if slash and int(den) == 0:
        raise ValueError(f"zero denominator in {s!r}")
    return Fraction(int(num), int(den) if slash else 1)


def json_scalar(x, kind: type):
    """A scalar read from JSON, if its type is exactly kind (a bool is no int)."""
    if type(x) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {type(x).__name__}")
    return x


def json_dumps_stable(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def exact_decimal(x, decimals: int = 6) -> str:
    """Decimal rendering of a rational by integer arithmetic (no float),
    truncated toward zero. For plot data files."""
    f = Fraction(x)
    sign = "-" if f < 0 else ""
    scale = 10**decimals
    scaled = abs(f.numerator) * scale // f.denominator
    whole, frac = divmod(scaled, scale)
    return f"{sign}{whole}.{frac:0{decimals}d}"
