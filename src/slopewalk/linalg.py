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

Each Berkowitz step is written with the adjugate (Berkowitz, IPL 18, 1984;
the adjugate by Faddeev-LeVerrier and Cayley-Hamilton): step r turns
det(I - z A), A the leading r x r block, into det(I - z M), M the leading
(r+1) x (r+1) one, by r + 1 products of M with a vector, with no Krylov
sequence and no convolution (see _berkowitz_step). Its k-th coefficient
needs only the k-th of step r - 1, so from FORK_MIN_N rows on, on a second
CPU, charpoly runs every other step in one forked child, and the two
processes stream each coefficient to each other as soon as it is computed
(see charpoly). The coefficients are the same integers, of the same types,
whether it forks or not.
"""

from __future__ import annotations

import os
import select
import signal
import sys
from collections.abc import Iterator
from fractions import Fraction
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
    has both. d is then lowered to the greatest d' <= d with every scaled
    off-diagonal valuation v_ij + d'_j - d'_i >= 0, the greatest fixpoint of
    d_i = min(d_i, min_j d_j + v_ij) (the diagonal's term, j = i, is never
    lower): rounds of that update run until one changes nothing (the labels
    only fall, and each v_ij >= 0 bounds them below by min d, so the rounds
    end). So rho, kappa and g are >= 0, and as rho and kappa are least
    valuations every right shift below is exact. When every median is 0,
    d = 0 is already feasible and one round confirms it.
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
    changed = True
    while changed:
        changed = False
        for i, row in enumerate(val):
            low = min((d[j] + v for j, v in row), default=d[i])
            if low < d[i]:
                d[i], changed = low, True
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


def _berkowitz_step(u: list[list[int]], g: list[int], spans: list[tuple[int, int]],
                    r: int, coeffs: Iterator[int]) -> Iterator[int]:
    """Berkowitz step r in adjugate form, on the integer matrix diag(2^g) U,
    each of whose rows enters a product only over its span [first, last +
    1) of nonzero columns.

    It draws a_1, ..., a_r of a(z) = det(I - z A), A the leading r x r
    block, one at a time from coeffs, and yields b_1, ..., b_(r+1) of
    b(z) = det(I - z M), M the leading (r+1) x (r+1) block; a_0 = b_0 = 1.
    Let R and C be row r and column r cut to A, and m = m_rr. Then

        b = a (1 - m z) - z^2 R adj(I - z A) C,
        adj(I - z A) = sum_j z^j B_j,  B_j = sum_(i <= j) a_i A^(j-i),

    so y_j = B_j C runs y_0 = C, y_j = A y_(j-1) + a_j C, and b_k = a_k -
    m a_(k-1) - R y_(k-2). Both are one product by M: M (y_(k-2), a_(k-1))
    = (y_(k-1), R y_(k-2) + m a_(k-1)). So for k = 1..r+1, t = (0, ..., 0,
    a_0) becomes M t, b_k is a_k minus the last entry of M t, and a_k takes
    that entry's place (a_(r+1) = 0, and the last product needs only row
    r). The y_j are bounded by the adjugate's coefficients, not by powers
    of A, and no convolution remains.

    b_k needs a_k only after the k-th product, so the step can run one
    coefficient behind step r - 1.
    """
    bands = []  # rows 0..r of U cut to M's columns
    for row, (lo, hi) in zip(u, spans[:r + 1]):
        hi = min(hi, r + 1)
        bands.append((row[lo:hi], lo, hi))
    shifted = [(i, g[i]) for i in range(r + 1) if g[i]]
    t = [0] * r + [1]
    for _ in range(r):
        t = [sum(map(mul, row, t[lo:hi])) for row, lo, hi in bands]
        for i, g_i in shifted:
            t[i] <<= g_i
        a = next(coeffs)
        yield a - t[r]
        t[r] = a
    row, lo, hi = bands[r]
    yield -(sum(map(mul, row, t[lo:hi])) << g[r])


# The smallest n whose charpoly forks a child; below it the fork, the
# child's start and the pipes cost more than the second CPU saves. In four
# sweeps over the weight-0 U_2 matrices and those of U_2 on Gamma0(2) and
# Gamma1(4), the median per call summed over the three was lower forked at
# n = 23 in three sweeps, and from n = 24 on in all four.
FORK_MIN_N = 23


def _pipelined(n: int) -> bool:
    """Whether charpoly runs the steps of an n x n matrix in two processes:
    n >= FORK_MIN_N, os.fork exists, two CPUs are usable and no other thread
    runs (forking it is unsafe)."""
    if n < FORK_MIN_N or not hasattr(os, "fork"):
        return False
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    threading = sys.modules.get("threading")
    return cpus >= 2 and (threading is None or threading.active_count() == 1)


class _Link:
    """One process's ends of the two pipes between charpoly's processes.
    Each coefficient goes as 4 bytes of length and then the int's signed
    little-endian bytes.

    A write never blocks: what the pipe does not take is queued, and written
    by the next send, or while this process waits for input, which it does
    on both fds at once. So neither process can wait in a write for the
    other. Output to a process that has gone (EPIPE) is dropped, and input
    from it ends in EOFError once what it sent has been read.
    """

    def __init__(self, read_fd: int, write_fd: int):
        os.set_blocking(write_fd, False)
        self.read_fd, self.write_fd = read_fd, write_fd
        self.inbox, self.pos, self.outbox = bytearray(), 0, bytearray()
        self.poll = select.poll()
        self.poll.register(read_fd, select.POLLIN)

    def send(self, c: int) -> None:
        data = c.to_bytes((c.bit_length() + 8) // 8, "little", signed=True)
        self.outbox += len(data).to_bytes(4, "little") + data
        self._write()

    def _write(self) -> None:
        try:
            del self.outbox[:os.write(self.write_fd, self.outbox)]
        except BlockingIOError:
            pass
        except BrokenPipeError:
            self.outbox.clear()

    def _wait(self) -> None:
        """Waits until input arrives and appends it to the inbox, writing
        queued output meanwhile."""
        while True:
            if self.outbox:
                self.poll.register(self.write_fd, select.POLLOUT)
            ready = {fd for fd, _ in self.poll.poll()}
            if self.outbox:
                self.poll.unregister(self.write_fd)
                if self.write_fd in ready:
                    self._write()
            if self.read_fd in ready:
                chunk = os.read(self.read_fd, 1 << 16)
                if not chunk:
                    raise EOFError("the other process has gone")
                del self.inbox[:self.pos]
                self.pos = 0
                self.inbox += chunk
                return

    def receive(self, count: int) -> Iterator[int]:
        """The next count coefficients, each as soon as it has arrived."""
        for _ in range(count):
            while True:
                inbox, pos = self.inbox, self.pos
                if len(inbox) >= pos + 4:
                    end = pos + 4 + int.from_bytes(inbox[pos:pos + 4], "little")
                    if len(inbox) >= end:
                        break
                self._wait()
            self.pos = end
            yield int.from_bytes(inbox[pos + 4:end], "little", signed=True)

    def flush(self) -> None:
        """Writes all queued output, blocking: only for the child's last
        words, which the parent reads to the end unless it kills the child."""
        os.set_blocking(self.write_fd, True)
        while self.outbox:
            self._write()


def _two_process_steps(u: list[list[int]], g: list[int], spans: list[tuple[int, int]],
                       n: int) -> tuple[list[int], int]:
    """Runs the n Berkowitz steps in this process and one forked child: the
    child takes the steps of the parity of n, this process those of n - 1,
    the last one included. Each streams each coefficient to the other as
    soon as it has computed it, and step r draws step r - 1's coefficients
    as they arrive.

    Returns (v, done): b_1..b_done of the leading done x done block, the
    last whole v held here. done is n unless the child could not be started
    or stopped early; the caller then runs the steps from done on in
    process. The child leaves only through os._exit, so it never flushes
    the stdio buffers it inherited, and once this process is gone it stops
    at the end of its input, which every step after step 0 reads between
    its products. The child is killed and reaped, and every fd closed,
    whether this returns or raises.
    """
    fds: list[int] = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except OSError:  # no process or pipe to spare
        for fd in fds:
            os.close(fd)
        return [], 0
    child_in, to_child, from_child, child_out = fds
    if pid == 0:
        status = 1
        try:
            os.close(to_child)
            os.close(from_child)
            link = _Link(child_in, child_out)
            for r in range(n % 2, n - 1, 2):
                for c in _berkowitz_step(u, g, spans, r, link.receive(r)):
                    link.send(c)
            link.flush()
            status = 0
        finally:
            os._exit(status)
    os.close(child_in)
    os.close(child_out)
    v: list[int] = []
    done = 0
    try:
        link = _Link(from_child, to_child)
        for r in range((n - 1) % 2, n, 2):
            out = []
            for c in _berkowitz_step(u, g, spans, r, link.receive(r)):
                out.append(c)
                if r + 1 < n:
                    link.send(c)
            v, done = out, r + 1
    except EOFError:  # the child stopped early
        pass
    finally:
        os.close(to_child)
        os.close(from_child)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    return v, done


def charpoly(mat: Matrix) -> list:
    """Characteristic polynomial det(X I - M), coefficients ascending c_0..c_n.

    An integer matrix gives int coefficients. A matrix with a Fraction entry
    is scaled to integers by the lcm L of its denominators, and c_i is the
    Fraction c'_i / L^(n-i) of the charpoly c' of L M (c_n stays the int 1),
    so no Fraction arithmetic runs inside the loop below.

    The integer matrix is replaced by the similar diag(2^g) U of _balance:
    the entries of the weight-0 U_2 matrix are ~200-bit numbers that are
    mostly trailing zeros, and U holds their small cofactors, so each
    product with a vector multiplies a cofactor and shifts the sum left by
    g_i. Division-free Berkowitz then runs on diag(2^g) U in adjugate form
    (_berkowitz_step): step r extends det(I - z A), A the leading r x r
    block, to det(I - z M), M the leading (r+1) x (r+1) one, by r + 1
    products of M with a vector bounded by the coefficients of adj(I - z A),
    and c_i is the coefficient of z^(n-i) after the last step. Each row
    enters a product only over the span of its nonzero columns (the weight-0
    U_2 matrix is nonzero only for j/2 <= i <= 2j, so this skips about half
    of it), and every product is one sum(map(mul, ...)) over list slices.

    Step r's k-th coefficient needs only step r - 1's k-th. So for n >=
    FORK_MIN_N, with a second usable CPU, os.fork and no other thread
    running, a forked child takes every other step and this process the
    rest, the last one included, each streaming each coefficient to the
    other as soon as it is computed (_two_process_steps). The output is the
    same, byte for byte, either way: both processes run the same
    _berkowitz_step, and if the child stops early, this process runs every
    remaining step itself from the last whole set of coefficients it holds.
    No child or pipe outlives the call, whether it returns or raises.
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
    # v holds b_1..b_r of det(I - z A), A the leading r x r block, after r steps
    v, done = _two_process_steps(u, g, spans, n) if _pipelined(n) else ([], 0)
    for r in range(done, n):
        v = list(_berkowitz_step(u, g, spans, r, iter(v)))
    v.reverse()
    v.append(1)
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
    """f(y) by Horner's rule, f ascending."""
    acc = 0
    for c in reversed(f):
        acc = acc * y + c
    return acc


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
