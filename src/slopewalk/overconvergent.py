"""Truncated U_2 on weight-0 2-adic overconvergent forms, hauptmodul basis.

The weight-0 space is parametrized by the level-2 hauptmodul
f = Delta(q^2)/Delta(q) = q prod (1+q^n)^24, and U_2 is read off the
level-2 modular equation: the two values x_i = f((tau+i)/2), i = 0, 1, are
the roots of

    X^2 - (48 f + 4096 f^2) X - f.

Their power sums p_j = x_0^j + x_1^j = 2 U_2(f^j) therefore satisfy

    p_j = (48 f + 4096 f^2) p_{j-1} + f p_{j-2},   p_0 = 2,  p_1 = 48 f + 4096 f^2,

so U_2(f^j) = p_j / 2 is a polynomial of degree 2j in f with integer
coefficients; the division by 2 is checked to be exact. Column j of the
N x N matrix holds the coefficients of f^0 .. f^(N-1) in U_2(f^j). With
q-precision prec the known window is f^0 .. f^(prec//2 - 1): each column is
truncated below degree prec//2, and the zero rows past its top nonzero degree
there are recorded as residual_margins[j]. Only the first min(prec//2, 2N - 1)
rows are computed, as p_j has degree 2j, so the cost does not grow with prec.

The equation itself is certified on every call: p_1, p_2 and p_3 from the
recurrence, evaluated at the q-expansion of f, must equal 2 U_2(f^j)
computed from q-series at a fixed small precision, so a wrong coefficient
raises InvariantError instead of producing a wrong matrix.

Valuations grow down the rows and along the lower part of the columns (the
recorded compactness witness); Newton slopes of the truncation's exact
characteristic polynomial are its eigenvalue valuations. The frozen slopes
the tests use are checked against the Buzzard-Calegari closed form in
tests/oracle_store.py, which shares no code with this module.
"""

from __future__ import annotations

from collections import namedtuple
from operator import mul

from .errors import InsufficientPrecision, InvariantError
from .linalg import charpoly as _charpoly
from .padic import NewtonPolygon, val
from .qseries import QSeries, hauptmodul_f, u_p

# (a, b, c) in X^2 - (a f + b f^2) X - c f, the level-2 modular equation
MODULAR_EQUATION = (48, 4096, 1)

_CHECK_PREC = 40  # q-precision of the per-call check of MODULAR_EQUATION


class TruncatedCompactOperator(namedtuple(
    "TruncatedCompactOperator",
    "matrix residual_margins column_min_valuations row_min_valuations",
)):
    """N x N finite section of U_2 in the hauptmodul power basis."""

    __slots__ = ()
    matrix: tuple[tuple[int, ...], ...]
    residual_margins: tuple[int, ...]  # zero rows known past each column's top degree
    # empirical compactness witness: min valuation on/below the diagonal per
    # column (grows with j), plus per-row minima (grow with i)
    column_min_valuations: tuple[int | None, ...]
    row_min_valuations: tuple[int | None, ...]


def _power_sums(count: int, rows: int) -> list[list[int]]:
    """p_0 .. p_{count-1} from the recurrence, each as its coefficients of
    f^0 .. f^(rows-1)."""
    a, b, c = MODULAR_EQUATION

    def times_trace(p: list[int]) -> list[int]:  # (a f + b f^2) p, truncated
        return [0] + [a * p[i - 1] + (b * p[i - 2] if i >= 2 else 0) for i in range(1, rows)]

    sums = [[2] + [0] * (rows - 1), times_trace([1] + [0] * (rows - 1))]
    while len(sums) < count:
        t, prev = times_trace(sums[-1]), sums[-2]
        sums.append([t[0]] + [t[i] + c * prev[i - 1] for i in range(1, rows)])
    return sums[:count]


def _check_modular_equation() -> None:
    """p_j(f) must equal 2 U_2(f^j) as q-series for j = 1, 2, 3. The powers
    f^0 .. f^6 that the p_j(f) take below q^rows are formed once."""
    f = hauptmodul_f(_CHECK_PREC)
    rows = _CHECK_PREC // 2
    low = [QSeries.one(rows), f.truncate(rows)]
    while len(low) < 7:
        low.append(low[-1] * low[1])
    columns = list(zip(*(power.coeffs for power in low)))  # f^0 .. f^6 at each q^n
    fj = f
    for j, p in enumerate(_power_sums(4, 7)[1:], start=1):
        if j > 1:
            fj = fj * f
        value = [sum(map(mul, p, column)) for column in columns]
        if value != [2 * x for x in u_p(fj, 2).coeffs[:rows]]:
            raise InvariantError(
                f"modular equation {MODULAR_EQUATION} disagrees with 2 U_2(f^{j}) as q-series"
            )


def u2_matrix_weight0(n: int, prec: int) -> TruncatedCompactOperator:
    """The N x N block of U_2 in the basis f^0 .. f^(N-1), from the modular
    equation, with entries known through degree prec//2 - 1.

    Requires prec >= 2n + 8.
    """
    if n < 1:
        raise InsufficientPrecision(f"need n >= 1, got {n}")
    if prec < 2 * n + 8:
        raise InsufficientPrecision(f"need prec >= 2n + 8 = {2 * n + 8}, got {prec}")
    _check_modular_equation()
    rows = prec // 2
    # p_j has degree exactly 2j (leading coefficient 4096^j), so 2n - 1 rows
    # hold every column whole and the rows past them are zero
    columns: list[list[int]] = []
    for j, p in enumerate(_power_sums(n, min(rows, 2 * n - 1))):
        if any(x % 2 for x in p):
            raise InvariantError(f"2 U_2(f^{j}) has an odd coefficient in f")
        columns.append([x // 2 for x in p])
    margins = tuple(
        rows - 1 - max((i for i, x in enumerate(col) if x), default=0) for col in columns
    )
    matrix = tuple(tuple(col[i] for col in columns) for i in range(n))
    col_vals = tuple(
        min((val(x, 2) for x in col[j:n] if x), default=None) for j, col in enumerate(columns)
    )
    row_vals = tuple(min((val(x, 2) for x in row if x), default=None) for row in matrix)
    return TruncatedCompactOperator(matrix, margins, col_vals, row_vals)


def oc_slopes(op: TruncatedCompactOperator) -> NewtonPolygon:
    """The Newton polygon of the truncation's characteristic polynomial: its
    ``slopes`` are the eigenvalue valuations, ascending, and its
    ``zero_root_multiplicity`` counts the zero eigenvalues."""
    return NewtonPolygon.from_polynomial(_charpoly(op.matrix), 2)
