"""Exact p-adic valuations and Newton polygons over the rationals.

Valuations of nonzero rationals are integers; the fractional values that show
up later (weight-coordinate valuations like 1/4, slope ladders like 7/8) are
still exact ``Fraction`` instances produced by polygon slopes or closed
formulas, never floats. The valuation of zero is the ``INFINITY`` singleton,
which compares greater than every finite value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .errors import EmptyPolynomial


class _PadicInfinity:
    """Positive infinity for valuation arithmetic. Single instance: INFINITY."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("padic-infinity")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __neg__(self):
        raise ArithmeticError("negative infinity is not a valuation")


INFINITY = _PadicInfinity()

# A valuation is a Fraction or INFINITY.
Valuation = Fraction | _PadicInfinity


def val(x, p: int) -> Valuation:
    """p-adic valuation of a rational number; val(0) is INFINITY.

    ``x`` may be an int, Fraction, or any Rational. ``p`` must be prime
    (primality is the caller's responsibility; only p >= 2 is enforced).
    """
    if p < 2:
        raise ValueError(f"p must be a prime >= 2, got {p}")
    if isinstance(x, Rational):
        num, den = x.numerator, x.denominator
    else:
        raise TypeError(f"val expects a rational number, got {type(x).__name__}")
    if num == 0:
        return INFINITY
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return Fraction(v)


# Miller-Rabin to the first 13 prime bases is exact below this bound
# (Sorenson and Webster, Strong pseudoprimes to twelve prime bases, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality test by deterministic Miller-Rabin, fast for every n
    below 3.3 * 10^24; ValueError above, where no fixed set of bases is
    proven to decide primality."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_BOUND:
        raise ValueError(f"primality of {n} is not decided above {_MR_BOUND}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Segment:
    """One face of a lower convex hull: its slope and horizontal length."""

    slope: Fraction
    length: int


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower convex hull of finite (index, valuation) points.

    ``points`` holds the finite input points sorted by abscissa; ``hull`` the
    faces left to right with strictly increasing slopes. Points with infinite
    ordinate (zero coefficients) are dropped before hull construction, and
    ``zero_root_multiplicity`` records how many zero roots a polynomial input
    had (the abscissa of its lowest nonzero coefficient).
    """

    points: tuple[tuple[int, Fraction], ...]
    hull: tuple[Segment, ...]
    zero_root_multiplicity: int = 0

    @classmethod
    def from_points(cls, points, zero_root_multiplicity: int = 0) -> "NewtonPolygon":
        """Build the polygon from (x, valuation) pairs; order is irrelevant."""
        finite = sorted((int(x), Fraction(y)) for x, y in points if y is not INFINITY)
        if not finite:
            raise EmptyPolynomial("no finite points")
        dedup: dict[int, Fraction] = {}
        for x, y in finite:
            if x in dedup and dedup[x] != y:
                raise ValueError(f"conflicting ordinates at x={x}")
            dedup[x] = y
        pts = sorted(dedup.items())
        hull_pts = [pts[0]]
        for pt in pts[1:]:
            while len(hull_pts) >= 2:
                (x1, y1), (x2, y2) = hull_pts[-2], hull_pts[-1]
                # drop the middle point when it lies on or above the chord
                if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                    hull_pts.pop()
                else:
                    break
            hull_pts.append(pt)
        segments = []
        for (x1, y1), (x2, y2) in zip(hull_pts, hull_pts[1:]):
            segments.append(Segment(Fraction(y2 - y1, x2 - x1), x2 - x1))
        return cls(tuple(pts), tuple(segments), zero_root_multiplicity)

    @classmethod
    def from_polynomial(cls, coeffs, p: int) -> "NewtonPolygon":
        """Polygon of sum(c_i X^i) with ordinates v_p(c_i).

        Zero roots (a leading X^j factor) are excluded from the hull and
        reported via ``zero_root_multiplicity``.
        """
        vals = [(i, val(Fraction(c), p)) for i, c in enumerate(coeffs)]
        finite = [(i, v) for i, v in vals if v is not INFINITY]
        if not finite:
            raise EmptyPolynomial("all coefficients are zero")
        low = finite[0][0]
        shifted = [(i - low, v) for i, v in finite]
        return cls.from_points(shifted, zero_root_multiplicity=low)

    def slopes(self) -> list[Fraction]:
        """Root valuations: negated hull slopes with multiplicity, sorted."""
        out: list[Fraction] = []
        for seg in self.hull:
            out.extend([-seg.slope] * seg.length)
        return sorted(out)


def newton_slopes(coeffs, p: int) -> list[Fraction]:
    """Valuations of the nonzero roots of sum(c_i X^i), with multiplicity.

    Returns the sorted multiset of v_p of the nonzero roots (in an algebraic
    closure), i.e. the negated lower-hull slopes of the (i, v_p(c_i)) points.
    Zero roots are excluded; use NewtonPolygon.from_polynomial to see their
    multiplicity. Raises EmptyPolynomial when every coefficient is zero.
    """
    return NewtonPolygon.from_polynomial(coeffs, p).slopes()
