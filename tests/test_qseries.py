import pytest
from hypothesis import given, strategies as st

from oracle_store import fixture_value
from slopewalk.errors import InsufficientPrecision
from slopewalk.qseries import (
    QSeries,
    eisenstein,
    eisenstein2_level2,
    hauptmodul_f,
    hecke_t_p,
    sigma_odd_weight2,
    theta,
    u_p,
    v_p,
)
from series_helpers import agrees, delta
from slopewalk.serialize import rat_from_str

_frozen = lambda fid: [rat_from_str(s) for s in fixture_value(fid)]


def test_delta_prefix_matches_product_oracle():
    assert list(delta(4).coeffs) == _frozen("delta_prefix_4")  # q - 24q^2 + 252q^3


def test_theta_prefix():
    assert theta(5).coeffs == (1, 2, 0, 0, 2)


def test_hauptmodul_prefix_matches_division_oracle():
    assert list(hauptmodul_f(3).coeffs) == _frozen("hauptmodul_prefix_3")  # q + 24q^2


def test_hauptmodul_times_delta_is_delta_of_q_squared():
    f = hauptmodul_f(12)
    assert agrees(f * delta(12), v_p(delta(8), 2))


def test_eisenstein_prefactors():
    assert eisenstein(2, 3).coeffs == (1, -24, -72)
    assert eisenstein(4, 3).coeffs == (1, 240, 2160)
    assert eisenstein(6, 3).coeffs == (1, -504, -16632)


def test_a_level2_is_odd_divisor_sum():
    a = eisenstein2_level2(12)
    for n in range(1, 12):
        odd_divisors = sum(d for d in range(1, n + 1) if n % d == 0 and d % 2 == 1)
        assert a[n] == 24 * odd_divisors


def test_sigma_constructors_match_brute_force():
    e4 = eisenstein(4, 20)
    f = sigma_odd_weight2(20)
    for n in range(1, 20):
        sigma3 = sum(d**3 for d in range(1, n + 1) if n % d == 0)
        sigma1 = sum(d for d in range(1, n + 1) if n % d == 0)
        assert e4[n] == 240 * sigma3
        assert f[n] == (sigma1 if n % 2 else 0)


def test_mul_precision_accounts_for_leading_zeros():
    d = delta(6)  # order 1
    prod = d * d
    assert prod.prec == 7  # 6 + 1
    assert prod.coeffs[:4] == (0, 0, 1, -48)


def test_u_p_examples():
    one = QSeries.one(5)
    assert u_p(one, 2).coeffs == (1, 0)  # constants fixed, prec floor(5/2)
    assert u_p(delta(10), 2)[1] == -24  # tau(2)
    assert u_p(delta(10), 2).prec == 5
    with pytest.raises(InsufficientPrecision):
        u_p(QSeries.one(1), 2)


def test_v_then_u_is_identity_at_full_precision():
    d = delta(9)
    assert u_p(v_p(d, 2), 2) == d
    assert u_p(v_p(d, 3), 3) == d


def test_u_then_v_is_not_identity_off_the_p_grid():
    d = delta(9)
    round_trip = v_p(u_p(d, 2), 2)
    assert not agrees(round_trip, d)  # tau(1) lives at an odd index


def test_hecke_eigenforms():
    d = delta(20)
    assert agrees(hecke_t_p(d, 12, 2), d.scalar_mul(-24))
    e4 = eisenstein(4, 42)
    assert agrees(hecke_t_p(e4, 4, 2), e4.scalar_mul(9))  # 1 + 2^3 on 20 coefficients
    assert hecke_t_p(e4, 4, 2).prec >= 20


def test_delta_identity_e4_cubed_minus_e6_squared():
    prec = 16
    e4, e6 = eisenstein(4, prec), eisenstein(6, prec)
    assert agrees(e4 * e4 * e4 - e6 * e6, delta(prec).scalar_mul(1728))


def test_equality_only_up_to_shared_precision():
    a = delta(5)
    b = delta(9)
    assert agrees(a, b)
    assert a != b  # value semantics differ, precision differs


small_series = st.builds(
    QSeries.from_coeffs,
    st.lists(st.integers(-9, 9), min_size=1, max_size=7),
)


@given(small_series, small_series, small_series)
def test_ring_laws_to_justified_precision(a, b, c):
    assert agrees(a * b, b * a)
    assert agrees((a * b) * c, a * (b * c))
    assert agrees(a * (b + c), a * b + a * c)


@given(small_series, st.sampled_from([2, 3]))
def test_u_after_v_identity_property(a, p):
    assert u_p(v_p(a, p), p) == a
