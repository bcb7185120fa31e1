from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from slopewalk.serialize import exact_decimal, rat_from_str, rat_to_str


@given(st.one_of(st.integers(), st.booleans(), st.fractions()))
def test_rat_to_str_is_the_reduced_fraction(x):
    # ints and Fractions take fast paths; bools the general one
    f = Fraction(x)
    assert rat_to_str(x) == f"{f.numerator}/{f.denominator}"
    assert rat_from_str(rat_to_str(x)) == f


@pytest.mark.parametrize("x", [1.5, "1/2", None])
def test_rat_to_str_rejects_non_rationals(x):
    with pytest.raises(TypeError):
        rat_to_str(x)


@pytest.mark.parametrize("x, text", [
    (Fraction(7, 8), "0.875000"),
    (0, "0.000000"),
    (Fraction(-1, 3), "-0.333333"),
    (Fraction(-7, 3), "-2.333333"),
])
def test_exact_decimal_truncates_toward_zero(x, text):
    assert exact_decimal(x) == text
