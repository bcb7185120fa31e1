from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from slopewalk.eigencurve import (
    EigencurvePointModel,
    annulus_index,
    below_k_minus_1,
    bk_predicted_slope,
    boundary_point,
    classify,
    classify_slope,
    is_numerically_non_critical,
    twin,
    twin_index_sum_check,
)
from slopewalk.errors import (
    CenterOfWeightSpace,
    NonIntegralIndex,
    NotInBoundary,
    NotPotentiallyCrystalline,
)
from slopewalk.weightspace import MAX_WILD_EXPONENT, WeightCharacter, in_boundary


def _pt(k, m, slope, pc=True):
    return EigencurvePointModel(WeightCharacter(k, m), Fraction(slope), pc=pc)


def test_annulus_index_examples():
    assert annulus_index(_pt(5, 0, 2)) == 1  # the seed form model
    m0 = 4
    assert annulus_index(_pt(2, m0 + 1, 1 - Fraction(1, 2**m0))) == 2**m0 - 1
    with pytest.raises(NonIntegralIndex):
        annulus_index(_pt(5, 0, 3))
    with pytest.raises(NotInBoundary):
        annulus_index(_pt(12, 0, 3))


def test_twin_examples():
    self_twin = twin(_pt(5, 0, 2))
    assert self_twin == _pt(5, 0, 2)  # slope 2 = (k-1)/2
    z = _pt(11, 0, 2)
    assert twin(z).slope == 8
    assert annulus_index(twin(z)) == 4
    ordinary = EigencurvePointModel(WeightCharacter(9, 0), Fraction(0))
    assert twin(ordinary).slope == 8  # the model permits slope-0 twins


def test_twin_requires_pc():
    with pytest.raises(NotPotentiallyCrystalline):
        twin(_pt(5, 0, 2, pc=False))


def test_twin_index_sum_examples():
    assert twin_index_sum_check(_pt(5, 0, 2))  # 1 + 1 = 4/2
    assert twin_index_sum_check(_pt(11, 0, 2))  # 1 + 4 = 10/2


def test_classify():
    assert classify(_pt(5, 0, 0)) == "ordinary"
    assert classify(_pt(12, 0, 3)) == "numerically_non_critical"
    assert classify(_pt(5, 0, 4)) == "neither"  # slope = k-1


@st.composite
def slope_and_weight(draw):
    k = draw(st.integers(2, 10**6))
    near = st.builds(lambda d: Fraction(k - 1) + d, st.fractions(-1, 1, max_denominator=64))
    slope = draw(st.one_of(st.just(Fraction(k - 1)), st.just(k - 1), near, st.fractions(0)))
    return slope, k


@given(slope_and_weight())
def test_classify_slope_uses_the_classicality_predicate(case):
    # k >= 2: for k <= 1 slope 0 is ordinary without being below k - 1
    slope, k = case
    assert (classify_slope(slope, k) != "neither") is below_k_minus_1(slope, k) is (slope < k - 1)


def test_bk_predicted_slope_examples():
    assert bk_predicted_slope(1, WeightCharacter(5, 0)) == 2
    assert bk_predicted_slope(3, WeightCharacter(2, 4)) == Fraction(3, 8)
    m = 6
    assert bk_predicted_slope(2**m - 1, WeightCharacter(2, m + 1)) == 1 - Fraction(1, 2**m)
    with pytest.raises(NotInBoundary):
        bk_predicted_slope(1, WeightCharacter(12, 0))


def test_json_round_trip():
    pt = _pt(2, 4, Fraction(7, 8))
    assert EigencurvePointModel.from_json_obj(pt.to_json_obj()) == pt


# -- generated boundary pc points --------------------------------------------------

def make_boundary_point(m: int, i: int, t: int) -> EigencurvePointModel:
    """A boundary point of X_i whose twin also lands on a boundary annulus:
    the weight is padded so 0 < slope < k - 1."""
    if m == 0:
        wc = WeightCharacter(2 * (i + t) + 1, 0)  # odd weight, v(w) = 2
    else:
        slope = i * Fraction(2) ** (1 - m)
        k = int(slope) + 1 + t
        wc = WeightCharacter(max(k, 2), m)
    return boundary_point(i, wc)


boundary_points = st.builds(
    make_boundary_point, st.integers(0, 10), st.integers(1, 50), st.integers(1, 30)
)


@given(boundary_points)
def test_twin_is_an_involution_on_boundary_points(pt):
    assert twin(twin(pt)) == pt


@given(boundary_points)
def test_boundary_reconstruction_round_trip(pt):
    assert bk_predicted_slope(annulus_index(pt), pt.wc) == pt.slope
    assert pt.slope > 0  # no ordinary points in the boundary


@given(boundary_points)
def test_index_sum_holds_on_generated_points(pt):
    assert twin_index_sum_check(pt)


# -- the integer closed forms against their Fraction definitions -------------------
#
# The definitions below are written from the weightspace docstring and the
# Buzzard-Kilford index i = slope / v(w); they share no code with src/.

def _v2(n: int) -> int:
    e = 0
    while n % 2 == 0:
        n //= 2
        e += 1
    return e


def defined_v_w(k: int, m: int) -> Fraction | None:
    """v(w) by the docstring's closed form; None at the center (2, 0)."""
    if m >= 1:
        return Fraction(2) ** (1 - m)
    if k == 2:
        return None
    if k % 2 == 1:
        return Fraction(2)
    return 2 + Fraction(_v2(k - 2))


def defined_member(k: int, m: int) -> bool:
    return 0 < defined_v_w(k, m) < 3


def defined_index(k: int, m: int, slope: Fraction) -> int | None:
    """slope / v(w) when that is a positive integer, else None."""
    ratio = slope / defined_v_w(k, m)
    return ratio.numerator if ratio.denominator == 1 and ratio >= 1 else None


def defined_index_sum(k: int, m: int) -> Fraction:
    return (k - 1) / defined_v_w(k, m)


@st.composite
def model_points(draw):
    m = draw(st.one_of(
        st.integers(0, 6), st.sampled_from([MAX_WILD_EXPONENT - 1, MAX_WILD_EXPONENT]),
        st.integers(0, MAX_WILD_EXPONENT),
    ))
    k = draw(st.one_of(st.integers(2, 12), st.integers(2, 10**6)))  # both parities, k = 2 included
    kind = draw(st.sampled_from(("zero", "dyadic", "non_dyadic", "on_annulus", "above_k_minus_1")))
    if kind == "zero":
        slope = Fraction(0)
    elif kind == "dyadic":
        slope = Fraction(draw(st.integers(0, 2**20)), 2 ** draw(st.integers(0, m + 3)))
    elif kind == "non_dyadic":
        odd = draw(st.integers(1, 500)) * 2 + 1
        den = odd * 2 ** draw(st.integers(0, m + 3))
        slope = Fraction(draw(st.integers(0, 10 * den * k)), den)
    elif kind == "on_annulus" and defined_v_w(k, m) is not None:
        slope = draw(st.integers(1, 2**20)) * defined_v_w(k, m)
    else:
        slope = k - 1 + Fraction(draw(st.integers(1, 2**12)), draw(st.integers(1, 2**12)))
    return EigencurvePointModel(WeightCharacter(k, m), slope, pc=draw(st.booleans()))


def _center_message(k, m):
    with pytest.raises(CenterOfWeightSpace) as excinfo:
        in_boundary(WeightCharacter(k, m))
    return str(excinfo.value)


@given(st.integers(2, 10**6), st.integers(0, MAX_WILD_EXPONENT))
def test_in_boundary_matches_its_definition(k, m):
    if defined_v_w(k, m) is None:
        assert _center_message(k, m) == "(k=2, m=0) has w = 0"
    else:
        assert in_boundary(WeightCharacter(k, m)) is defined_member(k, m)


@given(model_points())
def test_annulus_index_matches_its_definition(pt):
    k, m = pt.k, pt.wc.m
    if defined_v_w(k, m) is None:
        with pytest.raises(CenterOfWeightSpace, match=r"^\(k=2, m=0\) has w = 0$"):
            annulus_index(pt)
    elif not defined_member(k, m):
        with pytest.raises(NotInBoundary):
            annulus_index(pt)
    elif defined_index(k, m, pt.slope) is None:
        v = defined_v_w(k, m)
        with pytest.raises(NonIntegralIndex) as excinfo:
            annulus_index(pt)
        assert str(excinfo.value) == f"slope {pt.slope} over v(w) {v} gives index {pt.slope / v}"
    else:
        assert annulus_index(pt) == defined_index(k, m, pt.slope)


@given(model_points())
def test_twin_matches_its_definition(pt):
    if not pt.pc:
        with pytest.raises(NotPotentiallyCrystalline):
            twin(pt)
    elif pt.slope > pt.k - 1:
        with pytest.raises(ValueError, match="exceeds k-1"):
            twin(pt)
    else:
        tw = twin(pt)
        assert type(tw.slope) is Fraction and tw.slope == pt.k - 1 - pt.slope
        assert (tw.wc, tw.pc, tw.classical_claim) == (pt.wc, pt.pc, pt.classical_claim)
        assert twin(tw) == pt
    assert is_numerically_non_critical(pt) is (pt.slope < pt.k - 1)


@given(model_points())
def test_twin_index_sum_check_matches_its_definition(pt):
    k, m = pt.k, pt.wc.m
    pt = EigencurvePointModel(pt.wc, pt.slope)  # pc, so only the indices can fail
    defined = (
        defined_v_w(k, m) is not None
        and defined_member(k, m)
        and pt.slope <= k - 1
        and defined_index(k, m, pt.slope) is not None
        and defined_index(k, m, k - 1 - pt.slope) is not None
    )
    if defined:
        total = defined_index_sum(k, m)
        expected = total.denominator == 1 and (
            defined_index(k, m, pt.slope) + defined_index(k, m, k - 1 - pt.slope) == total
        )
        assert twin_index_sum_check(pt) is expected
    else:
        with pytest.raises((CenterOfWeightSpace, NotInBoundary, NonIntegralIndex, ValueError)):
            twin_index_sum_check(pt)


# -- only exact values enter the point model ---------------------------------------

@pytest.mark.parametrize("slope", [0.1, "1/2", True, None, 2.0])
def test_point_rejects_a_slope_that_is_not_an_int_or_a_fraction(slope):
    with pytest.raises(TypeError, match="slope"):
        EigencurvePointModel(WeightCharacter(3, 0), slope)


@pytest.mark.parametrize("wc", [(5, 0), None, "k=5,m=0", {"k": 5, "m": 0}])
def test_point_rejects_a_weight_that_is_not_a_weight_character(wc):
    with pytest.raises(TypeError, match="wc must be a WeightCharacter"):
        EigencurvePointModel(wc, Fraction(2))


@pytest.mark.parametrize("field", ["pc", "classical_claim"])
@pytest.mark.parametrize("flag", ["false", "true", 0, 1, None, 1.0])
def test_point_rejects_a_flag_that_is_not_a_bool(field, flag):
    # "false" is truthy, so twin took such a point for potentially crystalline
    with pytest.raises(TypeError, match=f"{field} must be a bool"):
        EigencurvePointModel(WeightCharacter(5, 0), Fraction(2), **{field: flag})


def test_int_slope_becomes_a_fraction_and_a_fraction_is_kept():
    pt = EigencurvePointModel(WeightCharacter(5, 0), 2)
    assert type(pt.slope) is Fraction and pt.slope == 2
    assert (pt.pc, pt.classical_claim) == (True, True)  # the defaults
    assert pt == EigencurvePointModel(WeightCharacter(5, 0), Fraction(2), True, True)
    half = Fraction(1, 2)
    assert EigencurvePointModel(WeightCharacter(2, 2), half).slope is half
    with pytest.raises(ValueError, match="slope must be >= 0"):
        EigencurvePointModel(WeightCharacter(5, 0), Fraction(-1, 3))
