import os
import subprocess
import sys
import threading
import time
from fractions import Fraction
from itertools import islice, permutations
from pathlib import Path
from statistics import median_high

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slopewalk
import slopewalk.linalg as linalg
from slopewalk.errors import InsufficientPrecision, ResidualNonzero
from slopewalk.linalg import (
    charpoly,
    kernel_basis,
    rank,
    rational_roots,
    rref,
    solve_exact,
    truncated_product,
)


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_rref_and_rank():
    m, pivots = rref([[2, 4], [1, 2], [0, 1]])
    assert pivots == [0, 1]
    assert rank([[1, 2], [2, 4]]) == 1


def test_solve_exact_certifies_every_row():
    a = [[1, 0], [0, 1], [1, 1], [2, 3]]
    x = [[Fraction(5)], [Fraction(-2)]]
    b = mat_mul(a, x)
    assert solve_exact(a, b) == x


def test_solve_exact_rejects_inconsistent_rows():
    a = [[1, 0], [0, 1], [1, 1]]
    b = [[1], [1], [3]]  # last row breaks consistency
    with pytest.raises(ResidualNonzero):
        solve_exact(a, b)


def test_solve_exact_rejects_underdetermined():
    a = [[1, 1], [2, 2], [3, 3]]  # rank 1 < 2 unknowns
    b = [[1], [2], [3]]
    with pytest.raises(InsufficientPrecision):
        solve_exact(a, b)


# -- solve_exact and rank against a plain Fraction Gauss-Jordan ----------------

def _gauss_jordan(mat, ncols):
    """Reduced echelon form of mat in Fractions, pivoting on its first ncols
    columns only; returns (rows, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in mat]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        below = [i for i in range(r, len(m)) if m[i][c] != 0]
        if not below:
            continue
        m[r], m[below[0]] = m[below[0]], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def _reference_solve(a, b):
    """What solve_exact must give: X, or the exception type and message."""
    n = len(a[0])
    m, pivots = _gauss_jordan([list(ra) + list(rb) for ra, rb in zip(a, b)], n)
    if any(x != 0 for row in m[len(pivots):] for x in row[n:]):
        return ResidualNonzero, "right-hand side not in the column span"
    if len(pivots) < n:
        return InsufficientPrecision, f"system underdetermined: rank {len(pivots)} < {n} unknowns"
    return [row[n:] for row in m[:n]]


def _solve_outcome(a, b):
    try:
        return solve_exact(a, b)
    except (ResidualNonzero, InsufficientPrecision) as exc:
        return type(exc), str(exc)


def _reference_rank(mat):
    return len(_gauss_jordan(mat, len(mat[0]) if mat else 0)[1])


solve_entries = st.one_of(
    st.just(0),
    st.integers(-(10**6), 10**6),
    st.builds(Fraction, st.integers(-2000, 2000), st.integers(1, 20)),
)


def matrices(rows, cols):
    return st.lists(solve_entries, min_size=rows * cols, max_size=rows * cols).map(
        lambda flat: [flat[i * cols:(i + 1) * cols] for i in range(rows)])


@st.composite
def systems(draw):
    """(A, B, X) with B = A X: A tall (rows >= n), int or Fraction entries,
    with zero rows, and with one column a combination of the others when
    `deficient` is drawn."""
    n = draw(st.integers(1, 5))
    rows = draw(st.integers(n, n + 4))
    m = draw(st.integers(1, 3))
    a = draw(matrices(rows, n))
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)):
        a[i] = [0] * n
    if n > 1 and draw(st.booleans()):  # rank deficient: column 0 from the rest
        (weights,) = draw(matrices(1, n - 1))
        for row in a:
            row[0] = sum(w * x for w, x in zip(weights, row[1:]))
    x = draw(matrices(n, m))
    return a, mat_mul(a, x), x


@settings(max_examples=300, deadline=None)
@given(systems())
def test_solve_exact_matches_gauss_jordan(system):
    a, b, x = system
    expected = _reference_solve(a, b)
    assert _solve_outcome(a, b) == expected
    if _reference_rank(a) == len(a[0]):
        assert expected == x  # the known solution is the unique one
    else:
        assert expected[0] is InsufficientPrecision
    assert rank(a) == _reference_rank(a)
    assert rank([list(ra) + list(rb) for ra, rb in zip(a, b)]) == _reference_rank(a)


@settings(max_examples=200, deadline=None)
@given(systems(), st.data())
def test_an_inconsistent_row_past_the_pivots_wins(system, data):
    # a row of A's span with a perturbed right-hand side: ResidualNonzero,
    # whether or not A also lacks full column rank
    a, b, _ = system
    i = data.draw(st.integers(0, len(a) - 1))
    (offset,) = data.draw(matrices(1, len(b[0])).filter(lambda m: any(m[0])))
    a = a + [list(a[i])]
    b = b + [[y + d for y, d in zip(b[i], offset)]]
    expected = _reference_solve(a, b)
    assert expected == (ResidualNonzero, "right-hand side not in the column span")
    assert _solve_outcome(a, b) == expected


def test_rank_edge_cases():
    assert rank([]) == _reference_rank([]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[], []]) == 0
    assert rank([[0, Fraction(1, 3)], [0, 2]]) == 1
    assert _solve_outcome([[0, 0], [0, 0]], [[0], [0]]) == (
        InsufficientPrecision, "system underdetermined: rank 0 < 2 unknowns")
    assert _solve_outcome([[0, 0], [0, 0]], [[0], [1]]) == (
        ResidualNonzero, "right-hand side not in the column span")


@pytest.mark.parametrize("level,k", [("gamma0_2", 88), ("gamma1_4", 44)])
def test_solve_exact_on_the_u2_systems(level, k):
    # the systems operator_matrix("u2", ...) solves, and build_basis's probe
    from slopewalk.qseries import u_p
    from slopewalk.spaces import Level, build_basis

    space = build_basis(Level(level), k)
    images = [u_p(f, 2) for f in space.basis]
    rows = min(im.prec for im in images)
    a = space.coefficient_matrix(rows)
    b = [[im[i] for im in images] for i in range(rows)]
    x = solve_exact(a, b)
    assert x == _reference_solve(a, b)
    assert mat_mul(a, x) == b
    probe = space.coefficient_matrix(space.dim + 6)
    assert rank(probe) == _reference_rank(probe) == space.dim


# -- rref and kernel_basis against the same Gauss-Jordan ------------------------

@st.composite
def echelon_inputs(draw):
    """Matrices with zero rows and rows that are combinations of others, int
    or Fraction entries, up to 6 x 7."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(1, 7))
    mat = draw(matrices(rows, cols))
    if rows:
        for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)):
            mat[i] = [0] * cols
    if rows > 1 and draw(st.booleans()):  # last row from the others
        (weights,) = draw(matrices(1, rows - 1))
        mat[-1] = [sum(w * row[c] for w, row in zip(weights, mat)) for c in range(cols)]
    return mat


@settings(max_examples=300, deadline=None)
@given(echelon_inputs())
def test_rref_matches_gauss_jordan(mat):
    cols = len(mat[0]) if mat else 0
    red, pivots = rref(mat)
    assert (red, pivots) == _gauss_jordan(mat, cols)
    assert all(type(x) is Fraction for row in red for x in row)


def test_rref_edge_cases():
    assert rref([]) == ([], [])
    assert rref([[]]) == ([[]], [])
    red, pivots = rref([[0, 0, 0], [0, 0, 0]])
    assert (red, pivots) == ([[0, 0, 0], [0, 0, 0]], [])
    assert all(type(x) is Fraction for row in red for x in row)


def _reference_kernel(mat):
    """The kernel read off _gauss_jordan: one vector per free column."""
    cols = len(mat[0])
    red, pivots = _gauss_jordan(mat, cols)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][fc]
        basis.append(v)
    return basis


@settings(max_examples=200, deadline=None)
@given(echelon_inputs().filter(bool))
def test_kernel_basis_matches_gauss_jordan(mat):
    basis = kernel_basis(mat)
    assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in mat for v in basis)
    assert len(basis) == len(mat[0]) - _reference_rank(mat)
    assert basis == _reference_kernel(mat)


def test_rref_on_the_zero_constant_echelon_inputs():
    # the basis rows _zero_constant_echelon reduces, at every admissible k <= 40
    from slopewalk.errors import ParityError
    from slopewalk.spaces import Level, build_basis

    for level in Level:
        for k in range(41):
            try:
                space = build_basis(level, k)
            except ParityError:
                continue
            rows = [b.coeffs for b in space.basis]
            assert rref(rows) == _gauss_jordan(rows, space.prec), (level, k)


def test_charpoly_small_cases():
    assert charpoly([[-24]]) == [24, 1]  # X + 24
    assert charpoly([[0, 0], [0, 0]]) == [0, 0, 1]  # X^2
    # companion matrix of X^3 - 2X - 5
    comp = [[0, 0, 5], [1, 0, 2], [0, 1, 0]]
    assert charpoly(comp) == [-5, -2, 0, 1]


def test_charpoly_matches_trace_and_det():
    m = [[3, 1, 0], [2, -1, 4], [0, 5, 2]]
    cp = charpoly(m)
    assert cp[2] == -(3 - 1 + 2)  # -trace
    det = 3 * (-1 * 2 - 4 * 5) - 1 * (2 * 2 - 0) + 0
    assert cp[0] == -det  # (-1)^n det for n = 3


def test_kernel_basis():
    m = [[1, 2, 3], [2, 4, 6]]
    basis = kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        assert sum(a * b for a, b in zip(m[0], v)) == 0


def test_rational_roots_linear_and_quadratic():
    assert rational_roots([24, 1]) == [(Fraction(-24), 1)]
    assert rational_roots([-64, -12, 1]) == [(Fraction(-4), 1), (Fraction(16), 1)]
    assert rational_roots([2, 0, 1]) == []  # X^2 + 2 has no rational roots
    assert rational_roots([1, 2, 1]) == [(Fraction(-1), 2)]  # double root
    assert rational_roots([0, 0, 1]) == [(Fraction(0), 2)]


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_rational_roots_higher_degree_uses_exact_factorization():
    # (X - 2)(X + 3)(X - 1/2)(X^2 + 1)
    coeffs = [Fraction(1)]
    for factor in ([-2, 1], [3, 1], [Fraction(-1, 2), 1], [1, 0, 1]):
        coeffs = _poly_mul(coeffs, [Fraction(c) for c in factor])
    roots = dict(rational_roots(coeffs))
    assert roots == {Fraction(2): 1, Fraction(-3): 1, Fraction(1, 2): 1}


nonzero_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12).filter(lambda r: r != 0)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(nonzero_rationals, st.integers(1, 4), max_size=4),
    st.booleans(),
    st.integers(0, 3),
    nonzero_rationals,
)
def test_rational_roots_recovers_the_roots_a_polynomial_was_built_from(roots, irreducible, zeros, scale):
    # scale * X^zeros * (X^2 + 2)^[irreducible] * prod (X - r)^m
    coeffs = [Fraction(0)] * zeros + [scale]
    if irreducible:
        coeffs = _poly_mul(coeffs, [Fraction(2), Fraction(0), Fraction(1)])
    for r, m in roots.items():
        for _ in range(m):
            coeffs = _poly_mul(coeffs, [-r, Fraction(1)])
    expected = dict(roots)
    if zeros:
        expected[Fraction(0)] = zeros
    assert rational_roots(coeffs) == sorted(expected.items())


# -- charpoly against the Leibniz expansion of det(X I - M) --------------------

def _leibniz_charpoly(m):
    """det(X I - M) as the signed sum over permutations of products of the
    entries X delta_ij - m_ij, each a polynomial of degree <= 1."""
    n = len(m)
    total = [Fraction(0)] * (n + 1)
    for perm in permutations(range(n)):
        if any(i != j and m[i][j] == 0 for i, j in enumerate(perm)):
            continue  # a zero factor
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = [Fraction((-1) ** inversions)]
        for i, j in enumerate(perm):
            term = _poly_mul(term, [-Fraction(m[i][j]), Fraction(int(i == j))])
        for d, c in enumerate(term):
            total[d] += c
    return total


entries = st.one_of(
    st.just(0),
    st.integers(-(10**12), 10**12),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=30),
)


@st.composite
def sparse_matrices(draw):
    """n <= 6 integer or Fraction matrices with zero rows, zero columns and
    rows whose nonzero span ends before the diagonal."""
    n = draw(st.integers(1, 6))
    m = [[draw(entries) for _ in range(n)] for _ in range(n)]
    indices = st.sets(st.integers(0, n - 1), max_size=n)
    for i in draw(indices):
        m[i] = [0] * n
    for j in draw(indices):
        for row in m:
            row[j] = 0
    for i in draw(indices):  # row i nonzero only left of the diagonal
        m[i][i:] = [0] * (n - i)
    return m


def _check_types(m, cp):
    """charpoly gives ints throughout for an integer matrix, and for a matrix
    with a Fraction entry Fractions except the monic c_n."""
    integral = all(type(x) is int for row in m for x in row)
    assert [type(c) for c in cp] == [int if integral or i == len(m) else Fraction
                                     for i in range(len(cp))]


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_charpoly_matches_leibniz_expansion(m):
    cp = charpoly(m)
    assert cp == _leibniz_charpoly(m)
    _check_types(m, cp)


# -- charpoly on planted 2-adic structure, against oracles sharing no code ------

@st.composite
def planted_matrices(draw, max_n=6, min_n=1):
    """n x n integer matrices whose entry (i, j) is u 2^max(0, a i - b j + e)
    with u odd or even, of either sign, and exponents up to 300 (the shape of
    the weight-0 U_2 matrix, where a = 8, b = 4), with zero rows and columns."""
    n = draw(st.integers(min_n, max_n))
    a, b = draw(st.integers(-40, 40)), draw(st.integers(-40, 40))
    e = draw(st.integers(-100, 300))
    units = draw(st.lists(st.one_of(st.just(0), st.integers(-(2**64), 2**64)),
                          min_size=n * n, max_size=n * n))
    m = [[units[i * n + j] << min(300, max(0, a * i - b * j + e)) for j in range(n)]
         for i in range(n)]
    indices = st.sets(st.integers(0, n - 1), max_size=2)
    for i in draw(indices):
        m[i] = [0] * n
    for j in draw(indices):
        for row in m:
            row[j] = 0
    return m


denominators = st.sampled_from([1, 2, 8, 2**40, 2**200, 3, 5, 9, 15, 3 * 2**7, 7**20])


@st.composite
def planted_fraction_matrices(draw, max_n=6, min_n=1):
    """planted_matrices divided entrywise by dyadic, odd and mixed denominators."""
    m = draw(planted_matrices(max_n, min_n))
    return [[Fraction(x, draw(denominators)) for x in row] for row in m]


@settings(max_examples=200, deadline=None)
@given(st.one_of(planted_matrices(), planted_fraction_matrices()))
def test_balanced_charpoly_matches_leibniz_on_planted_valuations(m):
    cp = charpoly(m)
    assert cp == _leibniz_charpoly(m)
    _check_types(m, cp)


@st.composite
def sparse_int_matrices(draw, max_n=12):
    """n x n integer matrices, mostly zero, whose nonzero entries are u 2^e
    with u odd and e up to 60 drawn per entry, so the valuations follow no
    row or column pattern."""
    n = draw(st.integers(1, max_n))
    entry = st.one_of(st.just(0), st.just(0),
                      st.builds(lambda u, e: (2 * u + 1) << e,
                                st.integers(-(2**20), 2**20), st.integers(0, 60)))
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


def _floyd_warshall_balance(m):
    """_balance's (U, g) by another route: the median labels, lowered to the
    greatest feasible ones by all-pairs shortest paths (Floyd-Warshall) over
    the edges j -> i of length v_ij, then the row and column pulls read off
    as least valuations and U formed with Fraction powers of 2."""
    def v2(x):
        e = 0
        while x % 2 == 0:
            x, e = x // 2, e + 1
        return e

    n, inf = len(m), float("inf")
    v = [[v2(x) if x else None for x in row] for row in m]
    d = [0]
    for j in range(n - 1):
        gaps = [row[j] - row[j + 1] for row in v if row[j] is not None and row[j + 1] is not None]
        d.append(d[-1] + (median_high(gaps) if gaps else 0))
    dist = [[0 if a == b else (v[b][a] if v[b][a] is not None else inf) for b in range(n)]
            for a in range(n)]  # dist[j][i]: the shortest path j -> i
    for c in range(n):
        for a in range(n):
            for b in range(n):
                dist[a][b] = min(dist[a][b], dist[a][c] + dist[c][b])
    d = [min(d[j] + dist[j][i] for j in range(n)) for i in range(n)]
    nonzero = [[j for j in range(n) if v[i][j] is not None] for i in range(n)]
    rho = [min((v[i][j] + d[j] - d[i] for j in nonzero[i]), default=0) for i in range(n)]
    kappa = [min((v[i][j] + d[j] - d[i] - rho[i] for i in range(n) if v[i][j] is not None),
                 default=0) for j in range(n)]
    u = [[Fraction(m[i][j]) * Fraction(2) ** (d[j] - d[i] - rho[i] - kappa[j]) for j in range(n)]
         for i in range(n)]
    assert all(x.denominator == 1 for row in u for x in row)
    return [[int(x) for x in row] for row in u], [r + k for r, k in zip(rho, kappa)]


@settings(max_examples=300, deadline=None)
@given(st.one_of(planted_matrices(12), sparse_int_matrices()))
def test_balance_picks_the_greatest_feasible_labels(m):
    u, g = linalg._balance(m)
    assert (u, g) == _floyd_warshall_balance(m)
    assert min(g) >= 0


def test_balance_of_the_u2_matrices_matches_floyd_warshall():
    for n in (1, 8, 20, 34, 60):
        m = _u2(n)
        assert linalg._balance(m) == _floyd_warshall_balance(m), n


def _textbook_berkowitz(m):
    """det(X I - M) ascending by Berkowitz's algorithm in its textbook form:
    for each leading minor r, the dense (r + 2) x (r + 1) Toeplitz matrix of
    1, -m_rr, -R C, -R A C, ..., -R A^(r-1) C times the previous minor's
    coefficients (highest degree first), with no band or scaling."""
    vec = [1]
    for r in range(len(m)):
        a = [row[:r] for row in m[:r]]
        row_r = m[r][:r]
        x = [m[i][r] for i in range(r)]
        col = [1, -m[r][r]]
        for _ in range(r):
            col.append(-sum(p * q for p, q in zip(row_r, x)))
            x = [sum(p * q for p, q in zip(arow, x)) for arow in a]
        toeplitz = [[col[i - j] if 0 <= i - j < len(col) else 0 for j in range(r + 1)]
                    for i in range(r + 2)]
        vec = [sum(t * v for t, v in zip(trow, vec)) for trow in toeplitz]
    return vec[::-1]


def test_textbook_berkowitz_is_an_oracle():
    comp = [[0, 0, 5], [1, 0, 2], [0, 1, 0]]
    assert _textbook_berkowitz(comp) == [-5, -2, 0, 1]
    m = [[3, 1, 0], [2, -1, 4], [0, 5, 2]]
    assert _textbook_berkowitz(m) == _leibniz_charpoly(m)


@settings(max_examples=60, deadline=None)
@given(st.one_of(planted_matrices(24), planted_fraction_matrices(12)))  # the oracle is slow on big Fractions
def test_balanced_charpoly_matches_textbook_berkowitz(m):
    cp = charpoly(m)
    assert cp == _textbook_berkowitz(m)
    _check_types(m, cp)


def test_charpoly_of_the_u2_matrices_matches_textbook_berkowitz():
    from slopewalk.overconvergent import u2_matrix_weight0

    for n in range(1, 25):
        m = [list(row) for row in u2_matrix_weight0(n, 2 * n + 8).matrix]
        cp = charpoly(m)
        assert cp == _textbook_berkowitz(m), n
        _check_types(m, cp)


# -- charpoly's two-process pipeline against the in-process loop ---------------

def _u2(n):
    from slopewalk.overconvergent import u2_matrix_weight0

    return [list(row) for row in u2_matrix_weight0(n, 2 * n + 8).matrix]


def two_cpus(mp):
    """Report two usable CPUs, so that charpoly forks even on a one-CPU run."""
    mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _open_fds():
    return os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else None


@settings(max_examples=15, deadline=None)
@given(st.one_of(planted_matrices(linalg.FORK_MIN_N + 2, linalg.FORK_MIN_N),
                 planted_fraction_matrices(linalg.FORK_MIN_N, linalg.FORK_MIN_N)))
def test_forked_charpoly_matches_textbook_berkowitz(m):
    with pytest.MonkeyPatch.context() as mp:
        two_cpus(mp)
        assert linalg._pipelined(len(m))  # two processes share the steps
        cp = charpoly(m)
    assert cp == _textbook_berkowitz(m)
    _check_types(m, cp)
    _assert_no_child_left()


def test_forked_charpoly_of_the_u2_matrices_matches_the_in_process_loop(monkeypatch):
    sizes = [*range(linalg.FORK_MIN_N, 35), 40, 48, 60]
    two_cpus(monkeypatch)
    fds = _open_fds()
    forked = {n: charpoly(_u2(n)) for n in sizes}
    assert all(linalg._pipelined(n) for n in sizes)
    assert _open_fds() == fds
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert not any(linalg._pipelined(n) for n in sizes)
    for n in sizes:
        assert forked[n] == charpoly(_u2(n)), n
    _assert_no_child_left()


def _steps_of(n, child):
    """The Berkowitz steps that the child, or the parent, runs for an n x n
    matrix: every other one, the parent's ending with the last."""
    return list(range(n % 2 if child else (n - 1) % 2, n - 1 if child else n, 2))


@pytest.mark.parametrize("fail_at", [0, 2, 4, 7, -1])
def test_a_failed_child_still_gives_the_charpoly(monkeypatch, fail_at):
    """The child exits 1 halfway through the fail_at-th of its steps (its
    first, three in the middle and its last), having streamed the
    coefficients before; the parent runs that step and the rest itself."""
    n = 30
    m = _u2(n)
    expected = _textbook_berkowitz(m)
    parent, step, here = os.getpid(), linalg._berkowitz_step, []
    failing_step = _steps_of(n, child=True)[fail_at]

    def failing(u, g, spans, r, coeffs):
        if os.getpid() == parent:
            here.append(r)
        elif r == failing_step:
            yield from islice(step(u, g, spans, r, coeffs), (r + 1) // 2)
            os._exit(1)
        yield from step(u, g, spans, r, coeffs)

    monkeypatch.setattr(linalg, "_berkowitz_step", failing)
    two_cpus(monkeypatch)
    assert charpoly(m) == expected
    # the parent's own steps up to the one that read the end of the stream,
    # then every step from the failed one on, from the last whole v
    mine = _steps_of(n, child=False)
    assert here == [r for r in mine if r <= failing_step + 1] + list(range(failing_step, n))
    _assert_no_child_left()


def test_an_exception_mid_stream_leaves_no_child(monkeypatch):
    m = _u2(34)
    two_cpus(monkeypatch)
    fds = _open_fds()
    parent, step = os.getpid(), linalg._berkowitz_step
    third = _steps_of(34, child=False)[2]

    def failing(u, g, spans, r, coeffs):
        if os.getpid() == parent and r == third:
            yield from islice(step(u, g, spans, r, coeffs), 3)
            raise KeyboardInterrupt
        yield from step(u, g, spans, r, coeffs)

    monkeypatch.setattr(linalg, "_berkowitz_step", failing)
    with pytest.raises(KeyboardInterrupt):
        charpoly(m)
    _assert_no_child_left()
    assert _open_fds() == fds
    monkeypatch.setattr(linalg, "_berkowitz_step", step)
    assert charpoly(m) == _textbook_berkowitz(m)
    _assert_no_child_left()


def test_one_cpu_forks_nothing(monkeypatch):
    def no_fork():
        raise AssertionError("charpoly forked on one CPU")

    m = _u2(34)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", no_fork)
    assert not linalg._pipelined(34)
    assert charpoly(m) == _textbook_berkowitz(m)


def test_no_fork_without_os_fork_or_with_a_second_thread(monkeypatch):
    m = _u2(24)
    two_cpus(monkeypatch)
    assert linalg._pipelined(24)
    expected = _textbook_berkowitz(m)
    stop = threading.Event()
    worker = threading.Thread(target=stop.wait)
    worker.start()
    try:
        assert not linalg._pipelined(24)
        monkeypatch.setattr(os, "fork", None)  # charpoly calling it fails
        assert charpoly(m) == expected
    finally:
        stop.set()
        worker.join(10)
    assert not worker.is_alive()
    monkeypatch.delattr(os, "fork")
    assert not linalg._pipelined(24)
    assert charpoly(m) == expected


def test_a_failed_fork_runs_every_step_in_process(monkeypatch):
    m = _u2(24)
    two_cpus(monkeypatch)
    fds = _open_fds()
    expected = _textbook_berkowitz(m)

    def failing_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")  # EAGAIN

    monkeypatch.setattr(os, "fork", failing_fork)
    assert charpoly(m) == expected
    assert _open_fds() == fds  # both pipes are closed again
    pipe, pipes = os.pipe, []

    def second_pipe_fails():
        if pipes:
            raise OSError(24, "Too many open files")  # EMFILE
        pipes.append(pipe())
        return pipes[-1]

    monkeypatch.setattr(os, "pipe", second_pipe_fails)
    assert charpoly(m) == expected
    assert pipes and _open_fds() == fds  # the first pipe is closed again


def test_the_child_never_flushes_inherited_stdout():
    # stdout to a pipe is block buffered, so "before" is still in the buffer
    # when charpoly forks; a child that flushed it would print it twice
    script = ("import os; from slopewalk import linalg; "
              "os.sched_getaffinity = lambda pid: {0, 1}; "
              "from slopewalk.overconvergent import u2_matrix_weight0; "
              "m = [list(r) for r in u2_matrix_weight0(30, 68).matrix]; "
              "print('before'); "
              "print(linalg._pipelined(30), len(linalg.charpoly(m)))")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(slopewalk.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "before\nTrue 31\n"


ORPHANED_CHILD = """
import os
from slopewalk import linalg
from slopewalk.overconvergent import u2_matrix_weight0

fork = os.fork

def reporting_fork():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid

m = [list(r) for r in u2_matrix_weight0(60, 128).matrix]
os.fork = reporting_fork
os.sched_getaffinity = lambda pid: {0, 1}
linalg.charpoly(m)
"""


def _running(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state not in "ZX"  # a zombie or a dead process has stopped


def test_the_child_stops_once_the_parent_is_gone():
    if not os.path.isdir("/proc/self"):
        pytest.skip("reads process states from /proc")
    env = dict(os.environ, PYTHONPATH=str(Path(slopewalk.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-c", ORPHANED_CHILD], stdout=subprocess.PIPE,
                            text=True, env=env)
    try:
        child = int(proc.stdout.readline())
    finally:
        proc.kill()  # mid-charpoly: the N = 60 steps take about a second
        proc.wait(timeout=10)
        proc.stdout.close()
    deadline = time.monotonic() + 30
    while _running(child):
        assert time.monotonic() < deadline, "the child outlived its parent"
        time.sleep(0.05)


SHRUNK_PIPES = """
import fcntl, os
from slopewalk import linalg
from slopewalk.overconvergent import u2_matrix_weight0

pipe, shrunk = os.pipe, []

def small_pipe():
    fds = pipe()
    fcntl.fcntl(fds[1], fcntl.F_SETPIPE_SZ, 4096)
    shrunk.append(fcntl.fcntl(fds[1], fcntl.F_GETPIPE_SZ))
    return fds

m = [list(r) for r in u2_matrix_weight0(60, 128).matrix]
os.pipe = small_pipe
os.sched_getaffinity = lambda pid: {0, 1}
forked = linalg.charpoly(m)
os.sched_getaffinity = lambda pid: {0}
print(shrunk, forked == linalg.charpoly(m))
"""


def test_shrunk_pipes_still_give_the_charpoly():
    # with pipes of one page, the N = 60 coefficients (up to ~9k bits each)
    # overflow them at once: a process that blocked in a write while the
    # other did too would hang until the timeout
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("pipe sizes are set with F_SETPIPE_SZ, on Linux only")
    env = dict(os.environ, PYTHONPATH=str(Path(slopewalk.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", SHRUNK_PIPES], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[4096, 4096] True\n"


# -- rational_roots' Horner evaluation against the power sum ---------------------

@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-(2**300), 2**300), max_size=12),
       st.one_of(st.integers(-20, 20), st.integers(-(2**80), 2**80)))
def test_horner_evaluation_matches_the_power_sum(f, y):
    assert linalg._evaluate(f, y) == sum(c * y**i for i, c in enumerate(f))


# -- truncated_product against a double loop ------------------------------------

def _double_loop_product(a, b, n):
    out = [0] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < n:
                out[i + j] += x * y
    return out


product_coefficients = st.one_of(
    st.just(0),
    st.integers(-(2**300), 2**300),
    st.fractions(max_denominator=30),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(product_coefficients, max_size=14),
    st.lists(product_coefficients, max_size=14),
    st.integers(0, 32),
    st.integers(0, 4),
)
def test_truncated_product_matches_a_double_loop(a, b, n, leading_zeros):
    a = [0] * leading_zeros + a
    out = truncated_product(a, b, n)
    assert out == _double_loop_product(a, b, n)
    assert len(out) == n
    assert [type(x) for x in out] == [type(x) for x in _double_loop_product(a, b, n)]


def test_truncated_product_edge_cases():
    assert truncated_product([1, 2], [3], 0) == []
    assert truncated_product([], [1, 2], 3) == [0, 0, 0]
    assert truncated_product([1, 1], [1, -1], 5) == [1, 0, -1, 0, 0]  # n past len(a) + len(b) - 1
    assert truncated_product([1, 2, 3], [4, 5], 2) == [4, 13]
