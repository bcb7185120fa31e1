from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracle_store import fixture_value
from slopewalk.errors import CenterOfWeightSpace
from slopewalk.padic import val
from slopewalk.serialize import rat_from_str
from slopewalk.weightspace import MAX_WILD_EXPONENT, WeightCharacter, in_boundary, w_valuation


def test_w_valuation_examples():
    assert w_valuation(WeightCharacter(5, 0)) == 2  # odd k
    assert w_valuation(WeightCharacter(12, 0)) == 3  # 2 + v(10)
    assert w_valuation(WeightCharacter(7, 3)) == Fraction(1, 4)  # 2^(1-m)
    assert w_valuation(WeightCharacter(2, 1)) == 1


def test_wild_exponent_is_bounded():
    top = WeightCharacter(3, MAX_WILD_EXPONENT)
    assert w_valuation(top) == Fraction(1, 2 ** (MAX_WILD_EXPONENT - 1))
    with pytest.raises(ValueError, match="wild exponent"):
        WeightCharacter(3, MAX_WILD_EXPONENT + 1)


def test_w_valuation_k12_matches_big_integer_oracle():
    assert w_valuation(WeightCharacter(12, 0)) == rat_from_str(
        fixture_value("val_w_coordinate_k12")
    )


def test_center_is_rejected():
    with pytest.raises(CenterOfWeightSpace):
        w_valuation(WeightCharacter(2, 0))
    with pytest.raises(CenterOfWeightSpace):
        in_boundary(WeightCharacter(2, 0))


def test_boundary_examples():
    assert in_boundary(WeightCharacter(5, 0))
    assert not in_boundary(WeightCharacter(12, 0))
    assert in_boundary(WeightCharacter(2, 4))  # valuation 1/8
    assert in_boundary(WeightCharacter(3, 1))  # m >= 1 gives valuation 1
    assert not in_boundary(WeightCharacter(34, 0))  # 2 + v(32) = 7


def test_closed_form_equals_lifting_the_exponent_up_to_200():
    for k in range(3, 201):
        assert w_valuation(WeightCharacter(k, 0)) == val(5 ** (k - 2) - 1, 2)


def test_even_weights_with_m0_never_in_boundary():
    for k in range(4, 201, 2):
        assert w_valuation(WeightCharacter(k, 0)) >= 3
        assert not in_boundary(WeightCharacter(k, 0))


@given(st.integers(2, 500), st.integers(1, 20))
def test_wild_valuation_is_independent_of_k(k, m):
    assert w_valuation(WeightCharacter(k, m)) == Fraction(2) ** (1 - m)


def test_wcoordinate_and_labels():
    wc = WeightCharacter(5, 0)
    assert w_valuation(wc) == 2 and in_boundary(wc)
    assert wc.label() == "k=5,m=0"


def test_invalid_characters_rejected():
    with pytest.raises(ValueError):
        WeightCharacter(1, 0)
    with pytest.raises(ValueError):
        WeightCharacter(5, -1)
