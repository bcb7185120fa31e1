"""The 2-adic weight coordinate w and the boundary-annulus membership test.

A weight character is modeled by the pair (k, m): it sends 5 to
5^(k-2) * zeta, zeta a primitive 2^m-th root of unity. Only the valuation of
w = (character value at 5) - 1 matters downstream, and it has a closed form:

    m >= 1            v(w) = 2^(1-m)
    m = 0, k odd      v(w) = 2
    m = 0, k even     v(w) = 2 + v_2(k - 2)     (so never < 3)

(k=2, m=0) is the center w = 0 and is rejected. The boundary annulus is
0 < v(w) < 3, i.e. |8| < |w| < 1: by the closed form that is m >= 1 or k odd,
which in_boundary tests on the integers k and m without building v(w).

The wild exponent is bounded by MAX_WILD_EXPONENT, so that v(w) = 2^(1-m)
stays a small exact rational whatever m a caller or a certificate supplies.
The bound is far above the m <= 65 that the walk planner uses for annulus
indices below 2^63.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CenterOfWeightSpace
from .padic import val

MAX_WILD_EXPONENT = 4096


@dataclass(frozen=True, order=True)
class WeightCharacter:
    """Pair (k, m): algebraic weight k >= 2 and wild order exponent m >= 0.

    Parity bookkeeping is implicit; the nebentypus absorbs it, and no choice
    of primitive root is stored since every downstream computation factors
    through v(w).
    """

    k: int
    m: int

    def __post_init__(self):
        for name in ("k", "m"):
            x = getattr(self, name)
            if type(x) is not int:
                raise TypeError(f"{name} must be an int, got {type(x).__name__}")
        if self.k < 2:
            raise ValueError(f"algebraic weight must be >= 2, got {self.k}")
        if self.m < 0:
            raise ValueError(f"wild exponent must be >= 0, got {self.m}")
        if self.m > MAX_WILD_EXPONENT:
            raise ValueError(f"wild exponent must be <= {MAX_WILD_EXPONENT}, got {self.m}")

    def label(self) -> str:
        return f"k={self.k},m={self.m}"


def _reject_center(wc: WeightCharacter) -> None:
    if wc.m == 0 and wc.k == 2:
        raise CenterOfWeightSpace("(k=2, m=0) has w = 0")


def w_valuation(wc: WeightCharacter) -> Fraction:
    """Closed-form v(w) for the weight character; exact Fraction."""
    if wc.m >= 1:
        return Fraction(1, 1 << (wc.m - 1))
    _reject_center(wc)
    if wc.k % 2 == 1:
        return Fraction(2)
    return 2 + Fraction(val(wc.k - 2, 2))


def in_boundary(wc: WeightCharacter) -> bool:
    """True when 0 < v(w) < 3 (the |8| < |w| < 1 annulus): v(w) = 2^(1-m) <= 1
    for m >= 1, v(w) = 2 for odd k, and v(w) = 2 + v_2(k - 2) >= 3 for even k."""
    if wc.m >= 1:
        return True
    _reject_center(wc)
    return wc.k % 2 == 1
