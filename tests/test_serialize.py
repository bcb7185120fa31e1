from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from slopewalk.serialize import rat_from_str, rat_to_str


@given(st.one_of(st.integers(), st.booleans(), st.fractions()))
def test_rat_to_str_is_the_reduced_fraction(x):
    # ints take a fast path; bools and Fractions the general one
    f = Fraction(x)
    assert rat_to_str(x) == f"{f.numerator}/{f.denominator}"
    assert rat_from_str(rat_to_str(x)) == f


@pytest.mark.parametrize("x", [1.5, "1/2", None])
def test_rat_to_str_rejects_non_rationals(x):
    with pytest.raises(TypeError):
        rat_to_str(x)
