from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from oracle_store import fixture_value
from slopewalk.errors import EmptyPolynomial
from slopewalk.padic import NewtonPolygon, is_prime, newton_slopes, val
from slopewalk.serialize import rat_from_str


def test_val_examples():
    assert val(24, 2) == 3
    assert val(-24, 3) == 1
    assert val(Fraction(3, 8), 2) == -3
    assert val(Fraction(9, 5), 3) == 2


@pytest.mark.parametrize("p", [2, 3, 5])
def test_zero_has_no_valuation(p):
    assert val(0, p) is None
    assert val(Fraction(0), p) is None


def test_polygon_refuses_what_val_refuses():
    with pytest.raises(TypeError):  # a float zero is not skipped as "no valuation"
        NewtonPolygon.from_polynomial([0.0, 1], 2)
    with pytest.raises(ValueError):
        NewtonPolygon.from_polynomial([1, 1], 1)


def test_is_prime_matches_trial_division_and_rejects_strong_pseudoprimes():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))

    assert [n for n in range(-3, 20000) if is_prime(n)] == [n for n in range(-3, 20000) if trial(n)]
    # strong pseudoprimes to the bases 2..23 and 2..37; Carmichael numbers
    for n in (3215031751, 3825123056546413051, 318665857834031151167461, 561, 41041):
        assert not is_prime(n)
    for n in (2**31 - 1, 2**61 - 1, 10**18 + 3):
        assert is_prime(n)
    with pytest.raises(ValueError):
        is_prime(2**89 - 1)


def test_val_5pow10_matches_oracle_fixture():
    assert val(5**10 - 1, 2) == rat_from_str(fixture_value("val_5pow10_minus_1_at_2"))


def test_newton_slopes_hand_hulls():
    assert newton_slopes([2048, 24, 1], 2) == [3, 8]
    # a_2 of the weight-16 eigenform is 216 (oracle fixture)
    a2 = rat_from_str(fixture_value("a2_weight16_eigenform"))
    assert a2 == 216
    assert newton_slopes([2**15, -a2, 1], 2) == [3, 12]


def test_zero_roots_reported_separately():
    polygon = NewtonPolygon.from_polynomial([0, 0, 0, 5], 7)  # 5 X^3
    assert polygon.zero_root_multiplicity == 3
    assert polygon.slopes == ()


def test_all_zero_coefficients_rejected():
    with pytest.raises(EmptyPolynomial):
        newton_slopes([0, 0, 0], 2)


def test_slope_count_and_sum():
    # X^2 - aX + p^(k-1): slopes sum to v(const) - v(lead) = k-1
    for a, k in [(-24, 12), (216, 16), (6, 5)]:
        slopes = newton_slopes([2 ** (k - 1), -a, 1], 2)
        assert len(slopes) == 2
        assert sum(slopes) == k - 1


@given(
    a=st.integers(-10**6, 10**6).filter(lambda a: a != 0),
    k=st.integers(2, 30),
    p=st.sampled_from([2, 3, 5]),
)
def test_quadratic_slope_sum_identity(a, k, p):
    slopes = newton_slopes([p ** (k - 1), -a, 1], p)
    assert len(slopes) == 2
    assert sum(slopes) == k - 1


@given(
    roots=st.lists(
        st.integers(min_value=-60, max_value=60).filter(lambda r: r != 0),
        min_size=1,
        max_size=6,
    ),
    zero_roots=st.integers(min_value=0, max_value=2),
    p=st.sampled_from([2, 3, 5]),
)
def test_factorable_polynomials_match_rootwise_valuations(roots, zero_roots, p):
    coeffs = [1]
    for r in roots:
        coeffs = [0] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] += -r * coeffs[i + 1]
    coeffs = [0] * zero_roots + coeffs
    polygon = NewtonPolygon.from_polynomial(coeffs, p)
    assert polygon.zero_root_multiplicity == zero_roots
    assert list(polygon.slopes) == sorted(val(r, p) for r in roots)


@settings(max_examples=400, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    terms=st.lists(
        st.sampled_from([0, Fraction(0)])
        | st.tuples(
            st.integers(-20, 20),  # the unit is (a p + 1) / (b p + 1)
            st.integers(0, 6),
            st.integers(-8, 12),  # the exponent of p
            st.booleans(),  # keep an integral coefficient as a Fraction
        ),
        max_size=12,
    ),
)
def test_newton_polygon_matches_brute_force_envelope(p, terms):
    """Coefficients u_i p^(e_i) with u_i a p-adic unit: the polygon is the
    lower envelope N(x) of every chord between two points (i, e_i), and the
    root valuations are N(x) - N(x + 1) at consecutive integers x."""
    coeffs, points = [], []
    for i, term in enumerate(terms):
        if not isinstance(term, tuple):
            coeffs.append(term)
            continue
        a, b, e, as_fraction = term
        c = Fraction(a * p + 1, b * p + 1) * Fraction(p) ** e
        coeffs.append(c if as_fraction or c.denominator > 1 else c.numerator)
        points.append((i, e))
    if not points:
        with pytest.raises(EmptyPolynomial):
            NewtonPolygon.from_polynomial(coeffs, p)
        return

    def envelope(x):
        return min(
            yi + Fraction((yj - yi) * (x - xi), xj - xi)
            for xi, yi in points
            for xj, yj in points
            if xi <= x <= xj and xi < xj
        )

    low, high = points[0][0], points[-1][0]
    expected = sorted(envelope(x) - envelope(x + 1) for x in range(low, high))
    polygon = NewtonPolygon.from_polynomial(coeffs, p)
    assert polygon.zero_root_multiplicity == low
    assert type(polygon.slopes) is tuple
    assert all(type(r) is Fraction for r in polygon.slopes)
    assert list(polygon.slopes) == newton_slopes(coeffs, p) == expected


def _naive_val(x, p):
    """v_p of a nonzero rational by dividing out one factor of p at a time."""
    x = Fraction(x)
    num, den, v = x.numerator, x.denominator, 0
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 2**61 - 1]),
    unit=st.integers(-(10**40), 10**40).filter(lambda u: u != 0),
    den=st.integers(1, 10**30),
    e=st.integers(0, 10**4),
    shift=st.integers(-60, 60),
    shape=st.sampled_from(["int", "fraction", "two-power", "p-power"]),
)
def test_val_matches_naive_division(p, unit, den, e, shift, shape):
    if shape == "int":
        x = unit
    elif shape == "fraction":
        x = Fraction(unit, den) * Fraction(p) ** shift
    elif shape == "two-power":
        x = 2**e * (2 * unit + 1)  # 2^e times an odd number, e up to 10^4
    else:
        x = Fraction(p ** (e % 300) * unit, den)
    assert val(x, p) == _naive_val(x, p)
    assert type(val(x, p)) is int
    assert val(-x, p) == val(x, p)
