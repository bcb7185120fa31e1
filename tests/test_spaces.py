import json
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from oracle_store import _nmat_mul, _nquad_ratio_order, fixture_value
from series_helpers import agrees, delta
from slopewalk.cli import main
from slopewalk.errors import (
    IrrationalEigenvalue,
    NoUniqueSlope,
    ParityError,
    PreconditionError,
    RepeatedRoot,
)
from slopewalk.padic import NewtonPolygon
from slopewalk.qseries import u_p
from slopewalk.serialize import rat_from_str
from slopewalk.spaces import (
    Level,
    SpaceBasis,
    build_basis,
    charpoly,
    cusp_subspace_level1,
    expected_dimension,
    extract_slope_eigenform,
    monomial_exponents,
    operator_prime,
    sturm_bound,
    hatada_check,
    is_n_regular,
    operator_matrix,
    ratio_order,
    rational_eigenvalue_with_slope,
    refinement,
    tp_precision,
    zero_constant_slice,
)
from slopewalk.linalg import rational_roots

_frozen = lambda fid: fixture_value(fid)


# -- bases ---------------------------------------------------------------------

def test_dimensions_match_monomial_counts_and_rank_oracles():
    assert build_basis(Level.SL2Z, 12).dim == 2  # E4^3, E6^2
    assert build_basis(Level.GAMMA1_4, 5).dim == _frozen("dim_gamma1_4_weight5") == 3
    assert build_basis(Level.GAMMA0_2, 8).dim == _frozen("dim_gamma0_2_weight8") == 3


def test_parity_errors():
    with pytest.raises(ParityError):
        build_basis(Level.SL2Z, 13)
    with pytest.raises(ParityError):
        build_basis(Level.SL2Z, 2)
    with pytest.raises(ParityError):
        build_basis(Level.GAMMA0_2, 7)
    with pytest.raises(ParityError):
        build_basis(Level.GAMMA1_4, 0)


def test_dimension_growth():
    # gamma0_2 and gamma1_4 dims are monotone in k; sl2z only within a
    # residue class mod 12 (dim M_12 = 2 > dim M_14 = 1)
    for level, ks in [
        (Level.GAMMA0_2, range(0, 41, 2)),
        (Level.GAMMA1_4, range(1, 31)),
    ]:
        dims = [expected_dimension(level, k) for k in ks]
        assert dims == sorted(dims)
    for residue in (0, 2, 4, 6, 8, 10):
        ks = [k for k in range(4, 80, 2) if k % 12 == residue]
        dims = [expected_dimension(Level.SL2Z, k) for k in ks]
        assert dims == sorted(dims)
    for level, ks in [
        (Level.SL2Z, [4, 6, 12, 24]),
        (Level.GAMMA0_2, [0, 2, 8, 12]),
        (Level.GAMMA1_4, [1, 2, 5, 9]),
    ]:
        for k in ks:
            assert build_basis(level, k).dim == expected_dimension(level, k)


def test_prec_hint_only_raises():
    assert build_basis(Level.SL2Z, 12, prec_hint=50).prec == 50
    assert build_basis(Level.SL2Z, 12, prec_hint=5).prec > 5


# -- cusp subspaces --------------------------------------------------------------

def test_miller_echelon_weight_12():
    cusp = cusp_subspace_level1(build_basis(Level.SL2Z, 12))
    assert cusp.dim == 1
    assert agrees(cusp.basis[0], delta(cusp.prec))


def test_no_cusp_forms_below_weight_12():
    assert cusp_subspace_level1(build_basis(Level.SL2Z, 10)).dim == 0
    assert cusp_subspace_level1(build_basis(Level.SL2Z, 4)).dim == 0


def test_cusp_subspace_level1_refuses_other_levels():
    with pytest.raises(PreconditionError, match="sl2z"):
        cusp_subspace_level1(build_basis(Level.GAMMA0_2, 8))


def test_miller_echelon_weight_24_matches_oracle():
    cusp = cusp_subspace_level1(build_basis(Level.SL2Z, 24))
    assert cusp.dim == 2
    expected = [[rat_from_str(s) for s in row] for row in _frozen("miller_basis_weight24_prefixes")]
    for f, exp in zip(cusp.basis, expected):
        assert list(f.coeffs[:5]) == exp
    # delta_ij normalization
    for i, f in enumerate(cusp.basis, start=1):
        for j in range(1, 3):
            assert f[j] == (1 if j == i else 0)


# -- operator matrices -----------------------------------------------------------

def test_t2_on_weight12_cusp_space():
    cusp = cusp_subspace_level1(build_basis(Level.SL2Z, 12))
    mat = operator_matrix("t2", cusp)
    assert mat.entries == ((-24,),)
    assert charpoly(mat) == [24, 1]


def test_t2_on_constants_follows_the_definition():
    # weight 0: T_2 = U_2 + 2^(k-1) V_2 has eigenvalue 1 + 1/2 on constants
    space = build_basis(Level.SL2Z, 0)
    mat = operator_matrix("t2", space)
    assert mat.entries == ((Fraction(3, 2),),)


def test_u2_requires_level_with_2_in_the_conductor():
    with pytest.raises(PreconditionError):
        operator_matrix("u2", build_basis(Level.SL2Z, 12))
    with pytest.raises(PreconditionError):
        operator_matrix("t2", build_basis(Level.GAMMA0_2, 8))


def test_an_unknown_operator_is_a_value_error():
    with pytest.raises(ValueError, match="unknown operator 'x'"):
        operator_prime("x", Level.SL2Z)


def test_operator_matrix_detects_underdetermined_solve():
    from slopewalk.errors import InsufficientPrecision

    space = build_basis(Level.GAMMA0_2, 8)
    # starve the solve: U_2 images of a prec-5 basis keep only 2 rows < dim 3
    starved = SpaceBasis(space.level, space.k, tuple(b.truncate(5) for b in space.basis), 5)
    with pytest.raises(InsufficientPrecision):
        operator_matrix("u2", starved)


def test_u2_weight5_slice_spectrum_matches_oracle():
    slice5 = zero_constant_slice(build_basis(Level.GAMMA1_4, 5))
    assert slice5.dim == 2
    mat = operator_matrix("u2", slice5)
    cp = charpoly(mat)
    eigs = sorted(rat_from_str(s) for s in _frozen("u2_weight5_slice_eigenvalues"))
    assert eigs == [-4, 16]
    # charpoly = (X + 4)(X - 16)
    assert cp == [eigs[0] * eigs[1], -(eigs[0] + eigs[1]), 1]
    assert NewtonPolygon.from_polynomial(cp, 2).slopes == (2, 4)


def test_extract_seed_eigenform_and_verify_eigenvector():
    slice5 = zero_constant_slice(build_basis(Level.GAMMA1_4, 5))
    mat = operator_matrix("u2", slice5)
    f0 = extract_slope_eigenform(mat, 2, 2)
    expected = [rat_from_str(s) for s in _frozen("seed_form_prefix_9")]
    assert list(f0.coeffs[:9]) == expected
    # genuinely an eigenvector, at full shared precision
    assert agrees(u_p(f0, 2), f0.scalar_mul(-4))


def test_extract_slope_eigenform_error_paths():
    slice5 = zero_constant_slice(build_basis(Level.GAMMA1_4, 5))
    mat = operator_matrix("u2", slice5)
    with pytest.raises(NoUniqueSlope):
        extract_slope_eigenform(mat, 5, 2)
    # weight 24: the T_2 eigenvalues are irrational, slopes {3, 7} distinct
    cusp24 = cusp_subspace_level1(build_basis(Level.SL2Z, 24))
    t2 = operator_matrix("t2", cusp24)
    slopes = NewtonPolygon.from_polynomial(charpoly(t2), 2).slopes
    lone = [s for s in slopes if slopes.count(s) == 1]
    with pytest.raises(IrrationalEigenvalue):
        rational_eigenvalue_with_slope(t2, lone[0], 2)


def test_extract_delta_from_t2():
    cusp = cusp_subspace_level1(build_basis(Level.SL2Z, 12))
    mat = operator_matrix("t2", cusp)
    assert agrees(extract_slope_eigenform(mat, 3, 2), delta(10))


def test_t2_charpoly_weight24_matches_oracle():
    cusp = cusp_subspace_level1(build_basis(Level.SL2Z, 24))
    cp = charpoly(operator_matrix("t2", cusp))
    assert [str(Fraction(c)) for c in cp] == [
        str(rat_from_str(s)) for s in _frozen("t2_charpoly_S24")
    ]
    assert cp[0] != 0
    assert all(s > 0 for s in NewtonPolygon.from_polynomial(cp, 2).slopes)


def test_hecke_operators_commute():
    for k in range(12, 41, 2):
        cusp = cusp_subspace_level1(build_basis(Level.SL2Z, k, prec_hint=60))
        if cusp.dim == 0:
            continue
        t2 = operator_matrix("t2", cusp).entries
        t3 = operator_matrix("tp", cusp, p=3).entries
        assert _nmat_mul(t2, t3) == _nmat_mul(t3, t2), f"k={k}"


def test_twin_slope_embedding_weight12_matches_oracle():
    m12 = build_basis(Level.GAMMA0_2, 12)
    slopes = NewtonPolygon.from_polynomial(charpoly(operator_matrix("u2", m12)), 2).slopes
    assert [str(s) for s in slopes] == [
        str(rat_from_str(s)) for s in _frozen("u2_slopes_gamma0_2_weight12")
    ]  # {0, 3, 8, 11}: Eisenstein 0 and k-1, refinement pair {3, 8}


# -- refinements and regularity ---------------------------------------------------

def test_refinement_examples():
    r = refinement(-24, 12, 2)
    assert (r.alpha_val, r.beta_val) == (3, 8)
    r = refinement(-4, 5, 2)
    assert (r.alpha_val, r.beta_val) == (2, 2)
    r = refinement(0, 19, 2)
    assert r.alpha_val == r.beta_val == Fraction(19 - 1, 2)
    r = refinement(1, 0, 3)  # p^(k-1) = 1/3 exactly, not a float
    assert r.alpha_val == r.beta_val == Fraction(-1, 2)


def test_ratio_order_examples():
    assert ratio_order(0, 12, 2) == 2  # alpha = -beta
    assert ratio_order(-24, 12, 2) is None  # t = 9/32
    assert ratio_order(-4, 5, 5) is None  # t = 16/625
    assert ratio_order(-4, 5, 2) == 3  # t = 1, the seed form
    with pytest.raises(RepeatedRoot):
        ratio_order(4, 3, 2)  # a^2 = 4 p^(k-1)


def test_ratio_order_matches_oracle_across_valuations():
    # a = +-c p^e for every e the finite orders need, and beyond, so that the
    # valuation test that skips p^(k-1) is exercised on both of its sides
    for p in (2, 3, 5):
        for k in range(-6, 19):
            for e in range(-4, 11):
                for c in (1, 2, 3, Fraction(7, 4)):
                    for a in (c * Fraction(p) ** e, -c * Fraction(p) ** e):
                        oracle = _nquad_ratio_order(a, k, p)
                        if oracle == "repeated":
                            with pytest.raises(RepeatedRoot):
                                ratio_order(a, k, p)
                            continue
                        mine = ratio_order(a, k, p)
                        assert ("infinite" if mine is None else mine) == oracle, (a, k, p)
                        if mine is None:
                            assert all(is_n_regular(a, k, p, n) for n in (2, 5, 50)), (a, k, p)
    assert ratio_order(0, 7, 3) == 2


@pytest.mark.parametrize("p", [0, 1, -3, 4, 12])
def test_ratio_order_rejects_non_prime_p(p):
    with pytest.raises(PreconditionError, match="p must be prime"):
        ratio_order(1, 12, p)


def test_is_n_regular():
    assert is_n_regular(-24, 12, 2, 9)
    assert not is_n_regular(0, 12, 2, 3)  # order 2 <= 2
    assert is_n_regular(-4, 5, 2, 3)  # order 3 > 2
    assert not is_n_regular(-4, 5, 2, 4)
    for n in (2, 5, 50):
        assert is_n_regular(-24, 12, 2, n)


# -- hatada -----------------------------------------------------------------------

def test_hatada_small_sweep():
    entries = hatada_check([4, 12, 14, 16, 24])
    assert all(e.passed for e in entries)
    by_k = {e.k: e for e in entries}
    assert by_k[4].dim == 0  # vacuous
    assert by_k[12].charpoly == (24, 1)
    with pytest.raises(PreconditionError):
        hatada_check([13])


# -- serialization ------------------------------------------------------------------

def test_space_and_matrix_json_round_trip(capsys):
    # the slopes payload carries the basis and the matrix it was computed from
    assert main(["slopes", "--level", "gamma1_4", "--k", "5", "--op", "u2"]) == 0
    obj = json.loads(capsys.readouterr().out)
    space = build_basis(Level.GAMMA1_4, 5)
    assert (obj["level"], obj["k"], obj["prec"], obj["dim"]) == ("gamma1_4", 5, space.prec, space.dim)
    assert [[rat_from_str(c) for c in row] for row in obj["basis"]] == [list(b.coeffs) for b in space.basis]
    mat = operator_matrix("u2", space)
    assert obj["operator"] == "u2"
    assert obj["matrix"] == [[f"{Fraction(x).numerator}/{Fraction(x).denominator}" for x in row] for row in mat.entries]


# -- T_p with its character and a q-precision scaled with p ---------------------

def _naive_tau(count):
    """tau(0..count-1) from Delta = q prod_{n>=1} (1 - q^n)^24, multiplying
    by one factor (1 - q^n) at a time."""
    prod = [1] + [0] * (count - 1)
    for n in range(1, count):
        for _ in range(24):
            prod = [c - (prod[i - n] if i >= n else 0) for i, c in enumerate(prod)]
    return [0] + prod[: count - 1]


def _chi4_power(level, k, p):
    """chi(p) for the character of M_k(level): chi_4(p)^k on gamma1_4, where
    chi_4(p) is 1 or -1 as p is 1 or 3 mod 4, and 1 elsewhere."""
    if level is not Level.GAMMA1_4:
        return 1
    return (1 if p % 4 == 1 else -1) ** k


def _tp_space(level, k, p):
    return build_basis(level, k, tp_precision(level, k, p))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_tp_on_s12_is_ramanujan_tau(p):
    cusp = cusp_subspace_level1(_tp_space(Level.SL2Z, 12, p))
    assert operator_matrix("tp", cusp, p=p).entries == ((_naive_tau(p + 1)[p],),)


@pytest.mark.parametrize("level,k", [
    (Level.SL2Z, 0), (Level.SL2Z, 12), (Level.SL2Z, 24),
    (Level.GAMMA0_2, 0), (Level.GAMMA0_2, 2), (Level.GAMMA0_2, 10),
    (Level.GAMMA1_4, 1), (Level.GAMMA1_4, 2), (Level.GAMMA1_4, 3),
    (Level.GAMMA1_4, 6), (Level.GAMMA1_4, 9), (Level.GAMMA1_4, 12),
])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_tp_charpoly_vanishes_at_the_eisenstein_eigenvalue(level, k, p):
    # the Eisenstein series E_k^{1, chi} has T_p-eigenvalue 1 + chi(p) p^(k-1)
    cp = charpoly(operator_matrix("tp", _tp_space(level, k, p), p=p))
    eigenvalue = 1 + _chi4_power(level, k, p) * Fraction(p) ** (k - 1)
    assert sum(c * eigenvalue**i for i, c in enumerate(cp)) == 0


@pytest.mark.parametrize("k", range(1, 13))
def test_t3_and_t5_commute_on_gamma1_4(k):
    space = _tp_space(Level.GAMMA1_4, k, 5)  # enough rows for T_3 as well
    t3 = operator_matrix("tp", space, p=3).entries
    t5 = operator_matrix("tp", space, p=5).entries
    assert _nmat_mul(t3, t5) == _nmat_mul(t5, t3)


@given(st.sampled_from(list(Level)), st.integers(-(10**30), 10**30))
@example(Level.SL2Z, 12 * 2**53 + 1)  # a float ceiling gives 2^53
@example(Level.GAMMA0_2, 4 * 2**53 + 2)
def test_sturm_bound_is_the_exact_ceiling(level, k):
    mu = {Level.SL2Z: 1, Level.GAMMA0_2: 3, Level.GAMMA1_4: 12}[level]
    assert sturm_bound(level, k) == -(-k * mu // 12)


def test_expected_dimension_counts_the_monomials():
    for level in Level:
        for k in range(-5, 2001):
            assert expected_dimension(level, k) == len(monomial_exponents(level, k)), (level, k)


def test_tp_precision_is_scaled_with_p():
    level, k = Level.GAMMA1_4, 24  # sturm bound 24, dim 13
    assert tp_precision(level, k, 31) == 31 * (24 + 13 + 10) == 1457
    assert tp_precision(level, k, None) is None
    with pytest.raises(ParityError):
        tp_precision(Level.SL2Z, 13, 3)


@pytest.mark.parametrize("k", [12, 16, 18, 20, 22, 26])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_rational_cuspidal_tp_eigenvalues_obey_deligne(k, p):
    cusp = cusp_subspace_level1(_tp_space(Level.SL2Z, k, p))
    roots = rational_roots(charpoly(operator_matrix("tp", cusp, p=p)))
    assert roots, "every weight here has a one-dimensional cusp space"
    assert all(a * a <= 4 * p ** (k - 1) for a, _ in roots)
