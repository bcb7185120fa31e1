"""Exact p-adic valuations and Newton polygons over the rationals.

Valuations of nonzero rationals are integers (``val`` returns an ``int``);
the fractional values that show up later (Newton slopes, weight-coordinate
valuations like 1/4) are exact ``Fraction`` instances, never floats. Zero
has no finite valuation, and ``val(0, p)`` is ``None``, the package's one
spelling of "no value".
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from numbers import Rational

from .errors import EmptyPolynomial


def val(x, p: int) -> int | None:
    """p-adic valuation of a rational number; val(0) is None.

    ``x`` may be an int, Fraction, or any Rational. ``p`` must be prime
    (primality is the caller's responsibility; only p >= 2 is enforced).
    The cost does not grow with the valuation one division at a time: for
    p = 2 it is read off the lowest set bit of numerator and denominator,
    and for odd p the factors p, p^2, p^4, ... are stripped by repeated
    squaring, then the same powers downward.
    """
    if p < 2:
        raise ValueError(f"p must be a prime >= 2, got {p}")
    if isinstance(x, Rational):
        num, den = x.numerator, x.denominator
    else:
        raise TypeError(f"val expects a rational number, got {type(x).__name__}")
    if num == 0:
        return None
    if p == 2:
        return (num & -num).bit_length() - (den & -den).bit_length()
    return _multiplicity(num, p) - _multiplicity(den, p)


def _multiplicity(n: int, p: int) -> int:
    """The largest e with p^e | n, for n != 0: divide by p, p^2, p^4, ...
    while each divides, then try the same powers again from the top down."""
    powers, e = [p], 0
    while n % powers[-1] == 0:
        n //= powers[-1]
        e += 1 << (len(powers) - 1)
        powers.append(powers[-1] * powers[-1])
    for j in range(len(powers) - 2, -1, -1):
        if n % powers[j] == 0:
            n //= powers[j]
            e += 1 << j
    return e


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


class NewtonPolygon(namedtuple("NewtonPolygon", "slopes zero_root_multiplicity")):
    """Newton polygon of sum(c_i X^i): the lower convex hull of the points
    (i, v_p(c_i)) of the nonzero c_i. ``slopes`` are its negated hull
    slopes with multiplicity, ascending: the valuations of the nonzero roots.
    Zero roots lie off the hull; ``zero_root_multiplicity`` counts them."""

    __slots__ = ()
    slopes: tuple[Fraction, ...]
    zero_root_multiplicity: int

    @classmethod
    def from_polynomial(cls, coeffs, p: int) -> "NewtonPolygon":
        """The polygon of sum(c_i X^i). Its points come sorted by abscissa
        with integer ordinates, so one monotone-chain pass with an integer
        cross-product test builds the lower hull; read right to left, its
        faces give the root valuations in ascending order."""
        points = [(i, v) for i, c in enumerate(coeffs) if (v := val(c, p)) is not None]
        if not points:
            raise EmptyPolynomial("all coefficients are zero")
        hull: list[tuple[int, int]] = []
        for x, y in points:
            while len(hull) >= 2:
                (x1, y1), (x2, y2) = hull[-2], hull[-1]
                # keep the middle vertex only when it lies below the chord
                if (y2 - y1) * (x - x1) < (y - y1) * (x2 - x1):
                    break
                hull.pop()
            hull.append((x, y))
        roots: list[Fraction] = []
        for (x1, y1), (x2, y2) in reversed(list(zip(hull, hull[1:]))):
            roots += [Fraction(y1 - y2, x2 - x1)] * (x2 - x1)
        return cls(tuple(roots), points[0][0])


def newton_slopes(coeffs, p: int) -> list[Fraction]:
    """Valuations of the nonzero roots of sum(c_i X^i) (in an algebraic
    closure), with multiplicity, ascending: the negated lower-hull slopes of
    the points (i, v_p(c_i)). NewtonPolygon.from_polynomial also counts the
    zero roots. Raises EmptyPolynomial when every coefficient is zero."""
    return list(NewtonPolygon.from_polynomial(coeffs, p).slopes)
