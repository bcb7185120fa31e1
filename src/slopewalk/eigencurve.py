"""Classical points of the 2-adic tame-level-1 eigencurve, at model granularity.

A point is (weight character, slope, flags). That is exactly the data the
annulus-walk arguments consume: boundary points lie on the annulus X_i with
i = slope / v(w), the twin involution swaps the two refinements so slopes
satisfy s + s' = k - 1 with (k, m) fixed, and classicality is decided by the
numerical criterion slope < k - 1 (ordinary meaning slope 0).

Since v(w) is 2^(1-m) for m >= 1 and 2 for a boundary character with m = 0,
the index, the twin's slope and the criterion are integer closed forms in
k, m and the slope's numerator num and denominator den: i = num * 2^(m-1) /
den or num / (2 den), and s' = ((k-1) den - num) / den. The index sum
i + i' = (k-1)/v(w), that is (k-1) * 2^(m-1) or (k-1) / 2, then holds
whenever both indices are integers, so nothing checks it apart. No Fraction
is divided or raised to a power on these paths; the slope stays a Fraction.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import NonIntegralIndex, NotInBoundary, NotPotentiallyCrystalline
from .serialize import json_scalar, rat_from_str, rat_to_str
from .weightspace import WeightCharacter, in_boundary, w_valuation


class EigencurvePointModel(namedtuple("EigencurvePointModel", "wc slope pc classical_claim")):
    """Slope-and-weight model of a classical point.

    pc: potentially crystalline, i.e. not a twist of Steinberg at 2; the twin
    involution is only defined there. classical_claim is a recorded flag, not
    derived from the slope: the certificate checker requires it of every
    within-annulus endpoint (ClassicalClaimMissing) and checks slope < k - 1
    there apart (NotClassical). An int slope is stored as a Fraction.
    """

    __slots__ = ()
    wc: WeightCharacter
    slope: Fraction
    pc: bool
    classical_claim: bool

    def __new__(cls, wc: WeightCharacter, slope, pc: bool = True, classical_claim: bool = True):
        if not isinstance(wc, WeightCharacter):
            raise TypeError(f"wc must be a WeightCharacter, got {type(wc).__name__}")
        for name, flag in (("pc", pc), ("classical_claim", classical_claim)):
            if type(flag) is not bool:
                raise TypeError(f"{name} must be a bool, got {type(flag).__name__}")
        if not isinstance(slope, Fraction):
            if type(slope) is not int:
                raise TypeError(f"slope must be an int or a Fraction, got {type(slope).__name__}")
            slope = Fraction(slope)
        if slope.numerator < 0:
            raise ValueError(f"slope must be >= 0, got {slope}")
        return super().__new__(cls, wc, slope, pc, classical_claim)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)

    @property
    def k(self) -> int:
        return self.wc.k

    def to_json_obj(self) -> dict:
        return {
            "k": self.wc.k,
            "m": self.wc.m,
            "slope": rat_to_str(self.slope),
            "pc": self.pc,
            "classical": self.classical_claim,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "EigencurvePointModel":
        return cls(
            WeightCharacter(json_scalar(obj["k"], int), json_scalar(obj["m"], int)),
            rat_from_str(obj["slope"]),
            json_scalar(obj["pc"], bool),
            json_scalar(obj["classical"], bool),
        )


def annulus_index(pt: EigencurvePointModel) -> int:
    """i with pt on X_i: slope / v(w), enforced to be a positive integer."""
    wc = pt.wc
    if not in_boundary(wc):
        raise NotInBoundary(f"{wc.label()} is not in the boundary annulus")
    num, den = pt.slope.numerator, pt.slope.denominator
    if wc.m:
        index, rest = divmod(num << (wc.m - 1), den)
    else:
        index, rest = divmod(num, 2 * den)
    if rest or index < 1:
        v = w_valuation(wc)
        raise NonIntegralIndex(f"slope {pt.slope} over v(w) {v} gives index {pt.slope / v}")
    return index


def twin(pt: EigencurvePointModel) -> EigencurvePointModel:
    """The twin point: same (k, m), slope k - 1 - s, pc preserved.

    An involution: twin(twin(pt)) == pt. Refuses non-pc points, where no twin
    is defined.
    """
    if not pt.pc:
        raise NotPotentiallyCrystalline("twin is defined on pc points only")
    den = pt.slope.denominator
    num = (pt.k - 1) * den - pt.slope.numerator
    if num < 0:
        raise ValueError(f"slope {pt.slope} exceeds k-1 = {pt.k - 1}; not a twin pair")
    return EigencurvePointModel(pt.wc, Fraction(num, den), pt.pc, pt.classical_claim)


def below_k_minus_1(slope: Fraction, k: int) -> bool:
    """The classicality criterion slope < k - 1, in integers."""
    return slope.numerator < (k - 1) * slope.denominator


def classify_slope(slope: Fraction, k: int) -> str:
    """'ordinary' (slope 0), 'numerically_non_critical' (0 < slope < k-1),
    or 'neither' (slope >= k-1)."""
    if slope == 0:
        return "ordinary"
    if below_k_minus_1(slope, k):
        return "numerically_non_critical"
    return "neither"


def bk_predicted_slope(i: int, wc: WeightCharacter) -> Fraction:
    """Slope of the point of X_i above wc: i * v(w)."""
    if i < 1:
        raise ValueError(f"annulus index must be >= 1, got {i}")
    if not in_boundary(wc):
        raise NotInBoundary(f"{wc.label()} is not in the boundary annulus")
    return i * w_valuation(wc)


def boundary_point(i: int, wc: WeightCharacter) -> EigencurvePointModel:
    """The point of X_i above wc, with its slope filled in."""
    slope = bk_predicted_slope(i, wc)
    return EigencurvePointModel(wc, slope, classical_claim=below_k_minus_1(slope, wc.k))
