"""Exact dense linear algebra over the rationals.

Everything here is exact; there is no pivot-size heuristic because there is
no rounding. One fraction-free elimination (Bareiss) serves the certified
solve, the rank, reduced echelon forms and kernels: each row is scaled to
integers, eliminated on the integers, and the triangle it leaves is
back-substituted with one Fraction per entry, so no Fraction arithmetic runs
inside the elimination. The solver is deliberately strict: every row of [A|B]
is certified, those past the pivots by a zero right-hand side. Systems that
are underdetermined raise InsufficientPrecision and inconsistent ones raise
ResidualNonzero, because downstream operator matrices must be certified, not
merely fitted.

Matrices are lists of row lists with int or Fraction entries. The
characteristic polynomial is one division-free Berkowitz loop on integers: a
matrix with a Fraction entry is scaled by the lcm L of its denominators, and
each coefficient c_i of the scaled matrix is divided once by L^(n-i) at the
end. Before the loop the integer matrix is balanced 2-adically (Parlett and
Reinsch's diagonal similarity in powers of the radix, in exact form): it is
conjugated by a diagonal matrix of powers of 2, chosen so that every scaled
entry stays an integer, and the common power of 2 of each row and then each
column is pulled out, leaving diag(2^g) U with small cofactors U and g >= 0.
Each product then multiplies a cofactor and shifts the sum left by g_i. The
powers pulled out are the least valuations of their rows and columns, so
every right shift made while balancing is exact, and the similarity keeps
every scaled off-diagonal valuation >= 0, so every g_i is too.

Berkowitz's step r needs only the leading (r+1) x (r+1) block, so from
FORK_MIN_N rows on, on a second CPU, charpoly runs the top steps' Krylov
sequences in one forked child process (see charpoly). The coefficients are
the same integers, of the same types, whether it forks or not.
"""

from __future__ import annotations

import marshal
import os
import sys
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import mul

from .errors import InsufficientPrecision, ResidualNonzero
from .padic import is_prime

Matrix = list[list]


def _integer_rows(mat: Matrix) -> list[list[int]]:
    """Each row times the lcm of its denominators: an integer matrix with the
    same row space, and, read as [A|B], a system with the same solutions."""
    out = []
    for row in mat:
        den = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (den // x.denominator) for x in row])
    return out


def _eliminate(m: list[list[int]], ncols: int) -> list[int]:
    """Fraction-free forward elimination (Bareiss) of the integer rows m, in
    place, on their first ncols columns; returns the pivot columns.

    Row r becomes the r-th echelon row, with pivot m[r][pivots[r]], and the
    rows past len(pivots) are zero on the first ncols columns. Each update
    (p x - m_i y) / prev, p the pivot and prev the one before it, divides
    exactly: by Sylvester's identity every entry is a minor of the row-swapped
    m and prev the minor one size smaller on the pivot rows and columns. So
    entries grow no faster than minors, and the last pivot is the minor on
    all the pivot rows and columns.
    """
    rows = len(m)
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top = m[r][c:]
        p = top[0]
        for i in range(r + 1, rows):
            row = m[i]
            mi = row[c]
            if mi:
                row[c:] = [(p * x - mi * y) // prev for x, y in zip(row[c:], top)]
            else:
                row[c:] = [p * x // prev for x in row[c:]]
        pivots.append(c)
        prev = p
        if r + 1 == rows:
            break
    return pivots


def _back_substitute(m: list[list[int]], pivots: list[int], start: int) -> Matrix:
    """The reduced rows R of the echelon rows m that _eliminate left with
    these pivots, on columns start onward: row i of m with the pivot triangle
    reduced to the identity. Solved bottom up for d R, d the last pivot,
    which is integral by Cramer's rule on the pivot minor, so each division
    is exact and each entry of R is one Fraction."""
    r = len(pivots)
    d = m[r - 1][pivots[-1]]
    dr: list[list[int]] = [[]] * r  # d R, filled bottom up
    for i in range(r - 1, -1, -1):
        row = m[i]
        acc = [d * y for y in row[start:]]
        for t in range(i + 1, r):
            f = row[pivots[t]]
            if f:
                acc = [u - f * v for u, v in zip(acc, dr[t])]
        dr[i] = [u // row[pivots[i]] for u in acc]
    return [[Fraction(v, d) for v in dri] for dri in dr]


def rref(mat: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form, every entry a Fraction and the zero rows
    last; returns (matrix, pivot column indices)."""
    m = _integer_rows(mat)
    cols = len(m[0]) if m else 0
    pivots = _eliminate(m, cols)
    red = _back_substitute(m, pivots, 0) if pivots else []
    return red + [[Fraction(0)] * cols for _ in range(len(m) - len(pivots))], pivots


def rank(mat: Matrix) -> int:
    return len(_eliminate(_integer_rows(mat), len(mat[0]) if mat else 0))


def solve_exact(a: Matrix, b: Matrix) -> Matrix:
    """Solve A X = B with full certification.

    A has shape (rows x n) with rows >= n and full column rank; B is
    (rows x m). [A|B] is scaled to integers row by row and eliminated fraction
    free on the columns of A. Every row is enforced, including the ones past
    the pivots: a nonzero right-hand side there raises ResidualNonzero, while
    column-rank deficiency raises InsufficientPrecision (more rows are needed
    to pin the solution down). X is then the B part of the reduced rows.
    """
    rows, n = len(a), len(a[0])
    aug = _integer_rows([list(a[i]) + list(b[i]) for i in range(rows)])
    pivots = _eliminate(aug, n)
    if any(any(row[n:]) for row in aug[len(pivots):]):
        raise ResidualNonzero("right-hand side not in the column span")
    if len(pivots) < n:
        raise InsufficientPrecision(
            f"system underdetermined: rank {len(pivots)} < {n} unknowns"
        )
    return _back_substitute(aug, pivots, n)


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


def _balance(m: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """(U, g) with diag(2^g) U an integer matrix similar to the integer
    matrix m and every g_i >= 0.

    U is m conjugated by D = diag(2^d), D^-1 m D, with each row's and then
    each column's common power of 2 pulled out: U_ij = m_ij 2^(d_j - d_i -
    rho_i - kappa_j) and g_i = rho_i + kappa_i, since diag(2^rho) U
    diag(2^kappa) is similar to diag(2^(rho + kappa)) U.

    d is read off the 2-adic valuations v_ij of the nonzero entries. If they
    were v_ij = alpha_i + beta_j, then d = -beta would make each row of
    D^-1 m D one power of 2 times odd cofactors, which the row pull strips
    to the odd parts (the weight-0 U_2 matrix has v_ij >= 8i - 4j - 1, close
    to equality, so d_i ~ 4i). So d_(j+1) - d_j is the median, over the rows
    with entries j and j+1 both nonzero, of v_ij - v_i(j+1), an estimate of
    beta_j - beta_(j+1) that no single row moves far; it is 0 where no row
    has both. d is then lowered to the largest d' <= d with every scaled
    off-diagonal valuation v_ij + d'_j - d'_i >= 0: the shortest-path labels
    d'_i = min(d_i, d'_j + v_ij) along edges j -> i of length v_ij >= 0,
    which Dijkstra's order settles once each. So rho, kappa and g are >= 0,
    and as rho and kappa are least valuations every right shift below is
    exact. When every median is 0, d = 0 is already feasible and the whole
    balancing is a few O(n^2) passes.
    """
    n = len(m)
    # (j, v_ij) for the nonzero entries of each row
    val = [[(j, (x & -x).bit_length() - 1) for j, x in enumerate(row) if x] for row in m]
    diffs: list[list[int]] = [[] for _ in range(n)]
    for row in val:
        for (j, a), (k, b) in zip(row, row[1:]):
            if k == j + 1:
                diffs[j].append(a - b)
    d = [0]
    for dj in diffs[:-1]:
        dj.sort()
        d.append(d[-1] + (dj[len(dj) // 2] if dj else 0))
    if any(d):  # Dijkstra from every index at once, each starting at d_j
        column: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for i, row in enumerate(val):
            for j, v in row:
                if j != i:
                    column[j].append((i, v))
        heap = [(dj, j) for j, dj in enumerate(d)]
        heapify(heap)
        while heap:
            dj, j = heappop(heap)
            if dj == d[j]:
                for i, v in column[j]:
                    if dj + v < d[i]:
                        d[i] = dj + v
                        heappush(heap, (d[i], i))
    rho = [min(v + d[j] for j, v in row) - d[i] if row else 0 for i, row in enumerate(val)]
    pulled: list[list[int]] = [[] for _ in range(n)]  # column j after the row pulls
    for i, row in enumerate(val):
        for j, v in row:
            pulled[j].append(v + d[j] - d[i] - rho[i])
    kappa = [min(col, default=0) for col in pulled]
    u = [[x << e if e >= 0 else x >> -e
          for x, e in zip(row, [d[j] - d[i] - rho[i] - kappa[j] for j in range(n)])]
         for i, row in enumerate(m)]
    return u, [r + k for r, k in zip(rho, kappa)]


def _krylov_sequence(u: list[list[int]], g: list[int], spans: list[tuple[int, int]],
                     r: int) -> list[int]:
    """Berkowitz step r on the integer matrix diag(2^g) U: s_k = R A^k C for
    k = 0..r-1, where A is the leading r x r minor and R and C are row r and
    column r cut to it. Each row enters a product only over its span
    [first, last + 1) of nonzero columns. The step reads nothing but the
    leading (r + 1) x (r + 1) block, so the steps can run in any order."""
    bands = [(u[i], lo, min(hi, r)) for i, (lo, hi) in enumerate(spans[:r])]
    shifted = [(i, g[i]) for i in range(r) if g[i]]
    lo, hi = spans[r][0], min(spans[r][1], r)
    row = [x << g[r] for x in u[r][lo:hi]]  # R
    w = [u[i][r] << g[i] for i in range(r)]  # A^k C
    s = []
    for k in range(r):
        s.append(sum(map(mul, row, w[lo:hi])))
        if k < r - 1:
            w = [sum(map(mul, a[a_lo:a_hi], w[a_lo:a_hi])) for a, a_lo, a_hi in bands]
            for i, g_i in shifted:
                w[i] <<= g_i
    return s


# The smallest n whose charpoly forks a child; below it, on the weight-0 U_2
# matrices or those of U_2 on Gamma0(2) or Gamma1(4), the fork and the pipe
# can cost more than the child saves.
FORK_MIN_N = 20
# Estimated cost of step r, in units of r^4: a Krylov sequence costs 4 and
# the Toeplitz product that folds it into v costs 1.
_KRYLOV_WEIGHT, _TOEPLITZ_WEIGHT = 4, 1


def _child_first_step(n: int) -> int:
    """The first Berkowitz step that a forked child computes, or n when
    nothing is forked: no os.fork, fewer than two usable CPUs, a second
    thread running (forking it is unsafe), or n below FORK_MIN_N. The child
    takes the top steps, as many as keep its estimated Krylov cost within
    half of the whole charpoly's."""
    if n < FORK_MIN_N or not hasattr(os, "fork"):
        return n
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    threading = sys.modules.get("threading")
    if cpus < 2 or (threading is not None and threading.active_count() > 1):
        return n
    budget = (_KRYLOV_WEIGHT + _TOEPLITZ_WEIGHT) * sum(r**4 for r in range(1, n)) // 2
    first = n
    while first > 1 and _KRYLOV_WEIGHT * (first - 1) ** 4 <= budget:
        first -= 1
        budget -= _KRYLOV_WEIGHT * first**4
    return first


class _KrylovChild:
    """A forked process that computes _krylov_sequence for the steps
    first..n-1 in order, and streams each s to this one as soon as it is
    done: 8 bytes of length, then the marshal bytes of the list.

    The child ends only through os._exit, so it never flushes the stdio
    buffers it inherited, and it stops once this process is gone. The parent
    drains the pipe between its own steps so that the child seldom blocks on
    a full pipe, and reap() kills the child unless every step arrived and
    waits for it, so no process or zombie is left behind.
    """

    def __init__(self, u: list[list[int]], g: list[int], spans: list[tuple[int, int]],
                 first: int, n: int):
        read_fd, write_fd = os.pipe()
        parent = os.getpid()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            status = 1
            try:
                os.close(read_fd)
                for r in range(first, n):
                    if os.getppid() != parent:
                        break
                    data = marshal.dumps(_krylov_sequence(u, g, spans, r))
                    view = memoryview(len(data).to_bytes(8, "little") + data)
                    while view:
                        view = view[os.write(write_fd, view):]
                else:
                    status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        self.pid, self.fd, self.buf = pid, read_fd, bytearray()
        self.pending, self.ended = n - first, False

    def _read(self, block: bool) -> bool:
        """Append what the pipe holds to buf; False when nothing more can be
        read now (the pipe is empty without block, or at its end)."""
        os.set_blocking(self.fd, block)
        try:
            chunk = os.read(self.fd, 1 << 16)
        except BlockingIOError:
            return False
        self.buf += chunk
        self.ended = not chunk
        return bool(chunk)

    def drain(self) -> None:
        while not self.ended and self._read(False):
            pass

    def take(self) -> list[int] | None:
        """The next step's s, waiting for it; None once the stream has ended
        without it."""
        buf = self.buf
        while True:
            if len(buf) >= 8:
                end = 8 + int.from_bytes(buf[:8], "little")
                if len(buf) >= end:
                    s = marshal.loads(buf[8:end])
                    del buf[:end]
                    self.pending -= 1
                    return s
            if self.ended or not self._read(True):
                return None

    def reap(self) -> None:
        os.close(self.fd)
        if self.pending:
            os.kill(self.pid, 9)  # SIGKILL
        os.wait4(self.pid, 0)


def charpoly(mat: Matrix) -> list:
    """Characteristic polynomial det(X I - M), coefficients ascending c_0..c_n.

    An integer matrix gives int coefficients. A matrix with a Fraction entry
    is scaled to integers by the lcm L of its denominators, and c_i is the
    Fraction c'_i / L^(n-i) of the charpoly c' of L M (c_n stays the int 1),
    so no Fraction arithmetic runs inside the loop below.

    The integer matrix is replaced by the similar diag(2^g) U of _balance:
    the entries of the weight-0 U_2 matrix are ~200-bit numbers that are
    mostly trailing zeros, and U holds their small cofactors, so each
    product with A^k C below multiplies a cofactor and shifts the sum left
    by g_i. Division-free Berkowitz then runs on diag(2^g) U: step r extends
    the charpoly of the leading r x r minor A to that of the (r+1) x (r+1)
    one by convolving it with the Toeplitz column 1, -m_rr, -R C, -R A C,
    ..., -R A^(r-1) C, where R and C are row r and column r cut to the
    minor. Each row enters a product only over the span of its nonzero
    columns (the weight-0 U_2 matrix is nonzero only for j/2 <= i <= 2j, so
    this skips about half of it), and every inner product, the
    convolution's included, is one sum(map(mul, ...)) over list slices.

    The Krylov sequences R A^k C are ~80% of the time, and step r's reads
    only the leading (r+1) x (r+1) block. So for n >= FORK_MIN_N, with a
    second usable CPU, os.fork and no other thread running, a forked child
    computes the top steps from _child_first_step(n) on, about half of the
    estimated work, and streams each sequence back as soon as it is done;
    this process computes the low steps and runs the Toeplitz convolutions
    of all of them in order. The output is the same, byte for byte, either
    way: the child runs the same _krylov_sequence, and a step it did not
    deliver whole is computed here. No child outlives the call, whether it
    returns or raises.
    """
    n = len(mat)
    if n == 0:
        return [1]
    if any(len(row) != n for row in mat):
        raise ValueError("charpoly needs a square matrix")
    integral = all(isinstance(x, int) for row in mat for x in row)
    scale = 1 if integral else lcm(*(x.denominator for row in mat for x in row))
    ints = mat if integral else [[x.numerator * (scale // x.denominator) for x in row]
                                 for row in mat]
    u, g = _balance(ints)
    spans = []  # [first, last + 1) of each row's nonzero columns
    for row in u:
        nonzero = [j for j, x in enumerate(row) if x]
        spans.append((nonzero[0], nonzero[-1] + 1) if nonzero else (0, 0))
    first = _child_first_step(n)
    try:
        child = _KrylovChild(u, g, spans, first, n) if first < n else None
    except OSError:  # no process or pipe to spare: every step runs here
        child = None
    try:
        # v holds the charpoly of the leading principal minor, highest degree first
        v = [1, -ints[0][0]]
        for r in range(1, n):
            s = child.take() if child and r >= first else None
            if s is None:
                s = _krylov_sequence(u, g, spans, r)
            # v times the Toeplitz column 1, -m_rr, -s_0, ..., -s_(r-1), both
            # read highest degree first
            v = truncated_product([1, -ints[r][r], *(-x for x in s)], v, r + 2)
            if child:
                child.drain()
    finally:
        if child:
            child.reap()
    v.reverse()
    if integral:
        return v
    return [Fraction(c, scale ** (n - i)) for i, c in enumerate(v[:-1])] + [1]


def truncated_product(a: list, b: list, n: int) -> list:
    """The first n coefficients of the product of the ascending coefficient
    lists a and b; coefficient i is one inner product of a with the reversed
    b, and those past len(a) + len(b) - 2 are 0."""
    rb, last = b[::-1], len(b) - 1
    return [sum(map(mul, a[max(0, i - last):i + 1], rb[max(0, last - i):])) for i in range(n)]


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
