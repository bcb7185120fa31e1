"""Finite-dimensional spaces of classical modular forms and their operators.

Spaces are spanned by monomials in two fixed graded-ring generators per
level; no modular symbols anywhere. Every operator matrix is obtained by
coefficient matching against the basis and certified by zero residuals on
all rows past the pivots, so a wrong generator table or too little precision
fails loudly instead of corrupting slopes downstream.

Level tags and their generator pairs:

    sl2z      E4 (weight 4),          E6 (weight 6)
    gamma0_2  A = 2E2(q^2)-E2(q) (2), E4 (4)
    gamma1_4  Theta^2 (1),            F = sum_{n odd} sigma_1(n) q^n (2)
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from fractions import Fraction
from math import gcd

from . import linalg
from .errors import (
    InvariantError,
    DependentGenerators,
    IrrationalEigenvalue,
    NoUniqueSlope,
    ParityError,
    PreconditionError,
    RepeatedRoot,
)
from .padic import NewtonPolygon, is_prime, val
from .qseries import (
    QSeries,
    _norm,
    eisenstein,
    eisenstein2_level2,
    hecke_t_p,
    sigma_odd_weight2,
    theta,
    u_p,
)


class Level(Enum):
    SL2Z = "sl2z"
    GAMMA0_2 = "gamma0_2"
    GAMMA1_4 = "gamma1_4"

    @property
    def generator_weights(self) -> tuple[int, int]:
        return _GENERATOR_WEIGHTS[self]

    @property
    def projective_index(self) -> int:
        return _PROJECTIVE_INDEX[self]

    @property
    def conductor(self) -> int:
        return _CONDUCTOR[self]


_GENERATOR_WEIGHTS = {Level.SL2Z: (4, 6), Level.GAMMA0_2: (2, 4), Level.GAMMA1_4: (1, 2)}
_PROJECTIVE_INDEX = {Level.SL2Z: 1, Level.GAMMA0_2: 3, Level.GAMMA1_4: 12}
_CONDUCTOR = {Level.SL2Z: 1, Level.GAMMA0_2: 2, Level.GAMMA1_4: 4}


def _generators(level: Level, prec: int) -> tuple[QSeries, QSeries]:
    if level is Level.SL2Z:
        return eisenstein(4, prec), eisenstein(6, prec)
    if level is Level.GAMMA0_2:
        return eisenstein2_level2(prec), eisenstein(4, prec)
    g1 = theta(prec)
    return g1 * g1, sigma_odd_weight2(prec)


def monomial_exponents(level: Level, k: int) -> list[tuple[int, int]]:
    """(a, b) with a*w1 + b*w2 = k, ordered by ascending second exponent."""
    w1, w2 = level.generator_weights
    out = []
    for b in range(k // w2 + 1):
        rem = k - b * w2
        if rem >= 0 and rem % w1 == 0:
            out.append((rem // w1, b))
    return out


def expected_dimension(level: Level, k: int) -> int:
    """len(monomial_exponents(level, k)) in O(1): the b in 0..k // w2 with b w2
    = k (mod w1) are one residue class modulo w1 / g if g = gcd(w1, w2) | k."""
    w1, w2 = level.generator_weights
    g = gcd(w1, w2)
    if k % g:
        return 0
    step = w1 // g
    return len(range(k // g * pow(w2 // g, -1, step) % step, k // w2 + 1, step))


def sturm_bound(level: Level, k: int) -> int:
    return -(-k * level.projective_index // 12)


def _check_weight(level: Level, k: int) -> None:
    if k < 0:
        raise ParityError(f"negative weight {k}")
    if level is Level.SL2Z and not (k == 0 or (k % 2 == 0 and k >= 4)):
        raise ParityError(f"sl2z admits k = 0 or even k >= 4, got {k}")
    if level is Level.GAMMA0_2 and k % 2 != 0:
        raise ParityError(f"gamma0_2 admits even k only, got {k}")
    if level is Level.GAMMA1_4 and k < 1:
        raise ParityError(f"gamma1_4 admits k >= 1, got {k}")


class SpaceBasis(namedtuple("SpaceBasis", "level k basis prec")):
    """q-expansion basis of M_k(level), one series per generator monomial."""

    __slots__ = ()
    level: Level
    k: int
    basis: tuple[QSeries, ...]
    prec: int

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coefficient_matrix(self, rows: int) -> linalg.Matrix:
        """rows x dim matrix whose column j is basis_j's first coefficients."""
        return [[b[i] for b in self.basis] for i in range(rows)]


def build_basis(level: Level, k: int, prec_hint: int | None = None) -> SpaceBasis:
    """Monomial basis of M_k(level) with validated independence and dimension.

    Working precision defaults to 2*ceil(k*mu/12) + dim + 10 (mu the
    projective index); prec_hint can only raise it.
    """
    _check_weight(level, k)  # every admissible weight has a monomial
    exps = monomial_exponents(level, k)
    dim = len(exps)
    prec = 2 * sturm_bound(level, k) + dim + 10
    if prec_hint is not None:
        prec = max(prec, prec_hint)
    g1, g2 = _generators(level, prec)
    max_a = max(a for a, _ in exps)
    max_b = max(b for _, b in exps)
    pow1 = [QSeries.one(prec)]
    for _ in range(max_a):
        pow1.append(pow1[-1] * g1)
    pow2 = [QSeries.one(prec)]
    for _ in range(max_b):
        pow2.append(pow2[-1] * g2)
    basis = tuple((pow1[a] * pow2[b]).truncate(prec) for a, b in exps)
    space = SpaceBasis(level, k, basis, prec)
    probe_rows = min(prec, dim + 6)
    if linalg.rank(space.coefficient_matrix(probe_rows)) != dim:
        raise DependentGenerators(
            f"monomials of weight {k} at level {level.value} are not independent"
        )
    return space


# T_p keeps one q-coefficient in p (its U_p term), so its basis is built at
# q-precision p (sturm + dim + 10), leaving the certified solve the
# sturm + dim + 10 rows; the build time grows with the square of that
# precision (1457 for gamma1_4, k = 24, p = 31: about 5 s), and larger
# requests are refused.
TP_MAX_PREC = 1500


def tp_precision(level: Level, k: int, p: int | None) -> int | None:
    """The basis q-precision p (sturm + dim + 10) for T_p on M_k(level).

    None when p is None (operator_matrix then asks for it), after the weight
    is checked; a PreconditionError when the weight is not admissible or the
    precision exceeds TP_MAX_PREC.
    """
    _check_weight(level, k)
    if p is None:
        return None
    prec = p * (sturm_bound(level, k) + expected_dimension(level, k) + 10)
    if prec > TP_MAX_PREC:
        raise PreconditionError(
            f"T_{p} on weight {k} at level {level.value} needs q-precision {prec} "
            f"> {TP_MAX_PREC}"
        )
    return prec


def cusp_subspace_level1(space: SpaceBasis) -> SpaceBasis:
    """Echelonized a_0 = 0 subspace of a level-1 space.

    Level 1 has a single cusp, so cuspidal means vanishing constant term. The
    returned basis is in Miller echelon form: a_i(f_j) = delta_ij for
    1 <= i, j <= dim.
    """
    if space.level is not Level.SL2Z:
        raise PreconditionError("cusp_subspace_level1 requires the sl2z level")
    cusp, pivots = _zero_constant_echelon(space)
    if pivots != list(range(space.dim)):
        raise InvariantError(f"level-1 echelon pivots {pivots} are not initial")
    return cusp


def zero_constant_slice(space: SpaceBasis) -> SpaceBasis:
    """Echelonized a_0 = 0 slice of any space (used for the Gamma_1(4) seed)."""
    return _zero_constant_echelon(space)[0]


def _zero_constant_echelon(space: SpaceBasis) -> tuple[SpaceBasis, list[int]]:
    """The rows of the basis's reduced echelon form with pivot >= 1, which
    span its a_0 = 0 slice, and the pivot columns of that form."""
    red, pivots = linalg.rref([b.coeffs for b in space.basis])
    sliced = tuple(
        QSeries.from_coeffs(red[r], space.prec) for r, p in enumerate(pivots) if p >= 1
    )
    return SpaceBasis(space.level, space.k, sliced, space.prec), pivots


class OperatorMatrix(namedtuple("OperatorMatrix", "entries operator space")):
    """Matrix of an operator on a SpaceBasis: op(b_j) = sum_i M[i][j] b_i."""

    __slots__ = ()
    entries: tuple[tuple[Fraction | int, ...], ...]
    operator: str
    space: SpaceBasis


def _apply_operator(op: str, p: int | None, space: SpaceBasis, series: QSeries) -> QSeries:
    if op == "u2":
        return u_p(series, 2)
    # t2 is T_p at p = 2 (operator_prime gives its p).
    # M_k(Gamma_1(4)) = M_k(Gamma_0(4), chi_4^k), chi_4(p) = (-1)^((p-1)/2)
    chi_p = (-1) ** space.k if space.level is Level.GAMMA1_4 and p % 4 == 3 else 1
    return hecke_t_p(series, space.k, p, chi_p)


def operator_prime(op: str, level: Level, p: int | None = None) -> int:
    """The prime of u2 / t2 / tp at the given level, or a PreconditionError
    when the operator does not act there.

    u2 is admitted on gamma0_2 and gamma1_4 (2-stabilized data) and t2 where
    the conductor is odd; both are at p = 2, whatever p is given. tp needs a
    prime p with gcd(p, conductor) = 1.
    """
    if op == "u2":
        if level is Level.SL2Z:
            raise PreconditionError("U_2 does not act on unstabilized level-1 spaces")
        return 2
    if op == "t2":
        if level.conductor % 2 == 0:
            raise PreconditionError("T_2 requires 2 coprime to the level conductor")
        return 2
    if op == "tp":
        if p is None:
            raise PreconditionError("tp needs an explicit prime p")
        if not is_prime(p):
            raise PreconditionError(f"p must be prime, got {p}")
        if gcd(p, level.conductor) != 1:
            raise PreconditionError(f"T_{p} requires p coprime to the conductor")
        return p
    raise ValueError(f"unknown operator {op!r}")


def operator_matrix(op: str, space: SpaceBasis, p: int | None = None) -> OperatorMatrix:
    """Certified matrix of u2 / t2 / tp on the given basis (operator_prime
    says where each acts). The coefficient-matching solve uses every
    available row, so images that do not lie in the space trigger
    ResidualNonzero and too little precision triggers InsufficientPrecision.
    """
    p = operator_prime(op, space.level, p)
    images = [_apply_operator(op, p, space, b) for b in space.basis]
    rows = min(im.prec for im in images)
    a = space.coefficient_matrix(rows)
    b = [[images[j][i] for j in range(space.dim)] for i in range(rows)]
    x = linalg.solve_exact(a, b)
    entries = tuple(tuple(_norm(v) for v in row) for row in x)
    tag = op if op != "tp" else f"t{p}"
    return OperatorMatrix(entries, tag, space)


def slope_operator(level: Level, k: int, op: str, p: int | None = None) -> OperatorMatrix | None:
    """The certified matrix of u2 / t2 / tp on the weight-k space whose slopes
    `slopes` reports: S_k at level 1, M_k at the other levels; None when that
    space is 0.

    The weight, then T_p's precision cap, then the operator are checked, all
    before the basis is built, so an invalid request fails on the first of
    them and a 0 space never reaches operator_matrix. build_basis and
    operator_matrix repeat the weight and operator checks by design: they are
    public and check their own input.
    """
    prec_hint = tp_precision(level, k, p if op == "tp" else None)
    operator_prime(op, level, p)
    space = build_basis(level, k, prec_hint)
    if level is Level.SL2Z:
        space = cusp_subspace_level1(space)
    if space.dim == 0:
        return None
    return operator_matrix(op, space, p)


def charpoly(m: OperatorMatrix) -> list:
    """Exact monic characteristic polynomial, coefficients ascending."""
    return linalg.charpoly(m.entries)


def rational_eigenvalue_with_slope(m: OperatorMatrix, target_slope, p: int) -> Fraction:
    """The unique rational eigenvalue of valuation target_slope.

    NoUniqueSlope if the slope multiset does not contain the target exactly
    once; IrrationalEigenvalue if it does but no rational root matches.
    """
    cp = charpoly(m)
    target = Fraction(target_slope)
    count = NewtonPolygon.from_polynomial(cp, p).slopes.count(target)
    if count != 1:
        raise NoUniqueSlope(
            f"slope {target} occurs {count} times in the {m.operator} spectrum"
        )
    for root, _ in linalg.rational_roots(cp):
        if root != 0 and val(root, p) == target:
            return root
    raise IrrationalEigenvalue(f"the slope-{target} eigenvalue is not rational")


def extract_slope_eigenform(m: OperatorMatrix, target_slope, p: int) -> QSeries:
    """a_1-normalized eigenform for the unique rational eigenvalue of the
    requested slope."""
    value = rational_eigenvalue_with_slope(m, target_slope, p)
    shifted = [
        [Fraction(x) - (value if i == j else 0) for j, x in enumerate(row)]
        for i, row in enumerate(m.entries)
    ]
    kern = linalg.kernel_basis(shifted)
    if len(kern) != 1:
        raise InvariantError(f"eigenvalue {value} has eigenspace dimension {len(kern)}")
    vec = kern[0]
    series = QSeries.zero(m.space.prec)
    for c, b in zip(vec, m.space.basis):
        if c != 0:
            series = series + b.scalar_mul(c)
    a1 = series[1]
    if a1 == 0:
        raise InvariantError("eigenform has a_1 = 0; cannot normalize")
    return series.scalar_mul(1 / Fraction(a1))


class RefinementModel(namedtuple("RefinementModel", "alpha_val beta_val")):
    """Valuations of the two roots of X^2 - a_p X + p^(k-1)."""

    __slots__ = ()
    alpha_val: Fraction
    beta_val: Fraction


def refinement(a_p, k: int, p: int) -> RefinementModel:
    a_p = Fraction(a_p)
    slopes = NewtonPolygon.from_polynomial([Fraction(p) ** (k - 1), -a_p, 1], p).slopes
    if len(slopes) != 2:
        raise InvariantError(f"Hecke polynomial produced {len(slopes)} slopes")
    lo, hi = slopes
    if lo + hi != k - 1:
        raise InvariantError(f"refinement slopes {lo}+{hi} != {k - 1}")
    return RefinementModel(lo, hi)


# order of alpha/beta from t = a_p^2 / p^(k-1): t - 2 = z + 1/z forces
# z + 1/z in {-2,-1,0,1} for a root of unity z != 1, giving orders 2,3,4,6
_RATIO_ORDER_BY_T = {0: 2, 1: 3, 2: 4, 3: 6}


def ratio_order(a_p, k: int, p: int) -> int | None:
    """Multiplicative order of the refinement ratio alpha/beta.

    Returns a positive integer (2, 3, 4 or 6) when the ratio is a root of
    unity and None (infinite order) otherwise. The classification is by
    t = a_p^2/p^(k-1); it matches the brute-force quadratic-field oracle
    exactly (tested).
    t is 1, 2, 3 or 4 (a repeated root) only when v_p(t) = 2 v_p(a_p) - (k-1)
    is 0, 1 or 2, so p^(k-1) is formed only then: a huge |k| is decided by
    valuations alone.
    """
    if not is_prime(p):
        raise PreconditionError(f"p must be prime, got {p}")
    a_p = Fraction(a_p)
    if a_p == 0:
        return _RATIO_ORDER_BY_T[0]
    if not 0 <= 2 * val(a_p, p) - (k - 1) <= 2:
        return None
    pk = Fraction(p) ** (k - 1)
    if a_p * a_p == 4 * pk:
        raise RepeatedRoot(f"a_p^2 = 4 p^(k-1) for a_p={a_p}, k={k}, p={p}")
    t = a_p * a_p / pk
    if t.denominator == 1 and t.numerator in _RATIO_ORDER_BY_T:
        return _RATIO_ORDER_BY_T[t.numerator]
    return None


def is_n_regular(a_p, k: int, p: int, n: int) -> bool:
    """True when the refinement ratio has multiplicative order > n-1
    (infinite order included)."""
    order = ratio_order(a_p, k, p)
    return order is None or order > n - 1


class HatadaEntry(namedtuple(
    "HatadaEntry",
    "k charpoly mod3_ok mod8_ok constant_nonzero slopes_positive",
)):
    __slots__ = ()
    k: int
    charpoly: tuple
    mod3_ok: bool
    mod8_ok: bool
    constant_nonzero: bool
    slopes_positive: bool

    @property
    def dim(self) -> int:
        return len(self.charpoly) - 1

    @property
    def passed(self) -> bool:
        return self.mod3_ok and self.mod8_ok and self.constant_nonzero and self.slopes_positive


def hatada_check(k_values) -> tuple[HatadaEntry, ...]:
    """Congruence and non-ordinarity entries for T_2 on level-1 cusp spaces.

    For each even weight: the characteristic polynomial must be X^dim mod 3
    and mod 8, its constant term nonzero, and all 2-adic Newton slopes
    positive. Weights without cusp forms pass vacuously. Failures are
    reported, never raised.
    """
    entries = []
    for k in k_values:
        if k % 2 != 0:
            raise PreconditionError(f"hatada_check takes even weights, got {k}")
        mat = slope_operator(Level.SL2Z, k, "t2")
        if mat is None:
            entries.append(HatadaEntry(k, (1,), True, True, True, True))
            continue
        cp = charpoly(mat)
        lower = cp[:-1]
        mod3 = all(Fraction(c).denominator == 1 and Fraction(c).numerator % 3 == 0 for c in lower)
        mod8 = all(Fraction(c).denominator == 1 and Fraction(c).numerator % 8 == 0 for c in lower)
        const_nonzero = cp[0] != 0
        slopes_pos = const_nonzero and all(s > 0 for s in NewtonPolygon.from_polynomial(cp, 2).slopes)
        entries.append(HatadaEntry(k, tuple(cp), mod3, mod8, const_nonzero, slopes_pos))
    return tuple(entries)
