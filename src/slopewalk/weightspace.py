"""The 2-adic weight coordinate w and the boundary-annulus membership test.

A weight character is modeled by the pair (k, m): it sends 5 to
5^(k-2) * zeta, zeta a primitive 2^m-th root of unity. Only the valuation of
w = (character value at 5) - 1 matters downstream, and it has a closed form:

    m >= 1            v(w) = 2^(1-m)
    m = 0, k odd      v(w) = 2
    m = 0, k even     v(w) = 2 + v_2(k - 2)     (so never < 3)

(k=2, m=0) is the center w = 0 and is rejected. The boundary annulus is
0 < v(w) < 3, i.e. |8| < |w| < 1.

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
        if self.k < 2:
            raise ValueError(f"algebraic weight must be >= 2, got {self.k}")
        if self.m < 0:
            raise ValueError(f"wild exponent must be >= 0, got {self.m}")
        if self.m > MAX_WILD_EXPONENT:
            raise ValueError(f"wild exponent must be <= {MAX_WILD_EXPONENT}, got {self.m}")

    def label(self) -> str:
        return f"k={self.k},m={self.m}"


def w_valuation(wc: WeightCharacter) -> Fraction:
    """Closed-form v(w) for the weight character; exact Fraction."""
    if wc.m >= 1:
        return Fraction(2) ** (1 - wc.m)
    if wc.k == 2:
        raise CenterOfWeightSpace("(k=2, m=0) has w = 0")
    if wc.k % 2 == 1:
        return Fraction(2)
    return 2 + Fraction(val(wc.k - 2, 2))


def in_boundary(wc: WeightCharacter) -> bool:
    """True when 0 < v(w) < 3 (the |8| < |w| < 1 annulus)."""
    v = w_valuation(wc)
    return 0 < v < 3
