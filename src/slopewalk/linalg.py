"""Exact dense linear algebra over the rationals.

Everything here is fraction-exact; there is no pivot-size heuristic because
there is no rounding. The solver is deliberately strict: systems that are
underdetermined raise InsufficientPrecision and inconsistent ones raise
ResidualNonzero, because downstream operator matrices must be certified, not
merely fitted.

Matrices are lists of row lists with int or Fraction entries (ints are kept
as ints so that characteristic polynomials of integer matrices stay on the
fast big-integer path).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import InsufficientPrecision, ResidualNonzero
from .padic import is_prime

Matrix = list[list]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            x = ai[t]
            if x != 0:
                bt = b[t]
                for j in range(m):
                    if bt[j] != 0:
                        oi[j] += x * bt[j]
    return out


def rref(mat: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    m = [[Fraction(x) for x in row] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(mat: Matrix) -> int:
    return len(rref(mat)[1])


def solve_exact(a: Matrix, b: Matrix) -> Matrix:
    """Solve A X = B with full certification.

    A has shape (rows x n) with rows >= n and full column rank; B is
    (rows x m). Every row is enforced, including the ones past the pivots:
    a nonzero residual there raises ResidualNonzero, while column-rank
    deficiency raises InsufficientPrecision (more rows are needed to pin the
    solution down).
    """
    rows, n = len(a), len(a[0])
    m = len(b[0])
    aug = [list(a[i]) + list(b[i]) for i in range(rows)]
    red, pivots = rref(aug)
    a_pivots = [p for p in pivots if p < n]
    if any(p >= n for p in pivots):
        raise ResidualNonzero("right-hand side not in the column span")
    if len(a_pivots) < n:
        raise InsufficientPrecision(
            f"system underdetermined: rank {len(a_pivots)} < {n} unknowns"
        )
    x = [[Fraction(0)] * m for _ in range(n)]
    for r, p in enumerate(a_pivots):
        for j in range(m):
            x[p][j] = red[r][n + j]
    return x


def kernel_basis(mat: Matrix) -> list[list[Fraction]]:
    """Basis of the right nullspace of mat."""
    red, pivots = rref(mat)
    cols = len(mat[0])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][fc]
        basis.append(v)
    return basis


def charpoly(mat: Matrix) -> list:
    """Characteristic polynomial det(X I - M), coefficients ascending c_0..c_n.

    Division-free (Berkowitz), so integer matrices produce integer
    coefficients with no Fraction overhead. c_n = 1.
    """
    n = len(mat)
    if n == 0:
        return [1]
    if any(len(row) != n for row in mat):
        raise ValueError("charpoly needs a square matrix")
    # v holds the charpoly of the leading principal minor, highest degree first
    v = [1, -mat[0][0]]
    for r in range(1, n):
        row = mat[r][:r]
        col = [mat[i][r] for i in range(r)]
        sub = [mat[i][:r] for i in range(r)]
        # s_k = row . sub^k . col for k = 0..r-1
        s = []
        w = col[:]
        for k in range(r):
            s.append(sum(row[i] * w[i] for i in range(r)))
            if k < r - 1:
                w = [sum(sub[i][t] * w[t] for t in range(r)) for i in range(r)]
        first_col = [1, -mat[r][r]] + [-x for x in s]
        nxt = [0] * (r + 2)
        for i in range(r + 2):
            acc = 0
            for t in range(min(i, len(v) - 1) + 1):
                if i - t < len(first_col):
                    acc += first_col[i - t] * v[t]
            nxt[i] = acc
        v = nxt
    return list(reversed(v))


def _pseudo_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Pseudo-division over Z, coefficients ascending: lc(b)^(deg a - deg b + 1)
    * a = quot * b + rem with deg rem < deg b (plain division for monic b),
    except that rem is returned divided by its content."""
    quot, rem = [], list(a)
    for d in range(len(a) - len(b), -1, -1):
        c = rem[d + len(b) - 1]
        quot = [c] + [x * b[-1] for x in quot]
        rem = [x * b[-1] for x in rem]
        for i, y in enumerate(b):
            rem[d + i] -= c * y
    rem = rem[: len(b) - 1]
    while rem and rem[-1] == 0:
        rem.pop()
    content = gcd(*rem)
    return quot, [x // content for x in rem]


def _evaluate(f: list[int], y: int) -> int:
    return sum(c * y**i for i, c in enumerate(f))


def rational_roots(coeffs) -> list[tuple[Fraction, int]]:
    """Rational roots (with multiplicity, sorted) of sum(c_i X^i), c_i rational.

    One exact integer path for every degree (Loos's p-adic lifting of linear
    factors). With zero roots split off and denominators cleared, p has degree
    n, leading coefficient a and p(0) != 0; q(Y) = a^(n-1) p(Y/a) is monic over
    Z, and y/a is a root of p exactly when y is an integer root of q. The
    squarefree part s = q / gcd(q, q') (primitive Euclidean remainders) is
    monic over Z by Gauss's lemma. As disc(s) != 0, at the least odd prime l
    where every root of s mod l (found by trial) is simple, Newton's iteration
    lifts each one uniquely mod l^(2^j). An integer root r has |r| <= 1 +
    max |s_i| (Cauchy), so modulo M > 2(1 + max |s_i|) it is the symmetric
    residue of the lift of r mod l. A candidate is kept only if Y - r divides
    q exactly, and the number of such divisions is its multiplicity.
    """
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ValueError("zero polynomial has every root")
    zero_mult = next(i for i, c in enumerate(cs) if c != 0)
    den = lcm(*(c.denominator for c in cs))
    p = [int(c * den) for c in cs[zero_mult:]]
    n, a = len(p) - 1, p[-1]
    q = [c * a ** (n - 1 - i) for i, c in enumerate(p[:-1])] + [1]
    g, h = q, [i * c for i, c in enumerate(q)][1:]
    while h:
        g, h = h, _pseudo_divmod(g, h)[1]
    s = _pseudo_divmod(q, [x // g[-1] for x in g])[0]
    ds = [i * c for i, c in enumerate(s)][1:]
    ell = 3
    while not is_prime(ell) or any(
        _evaluate(s, y) % ell == 0 and _evaluate(ds, y) % ell == 0 for y in range(ell)
    ):
        ell += 2
    bound = 2 * (1 + max(abs(c) for c in s))
    roots: list[tuple[Fraction, int]] = []
    for r in (y for y in range(ell) if _evaluate(s, y) % ell == 0):
        mod = ell
        while mod <= bound:
            mod *= mod
            r = (r - _evaluate(s, r) * pow(_evaluate(ds, r), -1, mod)) % mod
        r = r - mod if r > mod // 2 else r
        mult, (quot, rem) = 0, _pseudo_divmod(q, [-r, 1])
        while not rem:
            mult, (quot, rem) = mult + 1, _pseudo_divmod(quot, [-r, 1])
        if mult:
            roots.append((Fraction(r, a), mult))
    if zero_mult:
        roots.append((Fraction(0), zero_mult))
    roots.sort(key=lambda rm: rm[0])
    return roots
