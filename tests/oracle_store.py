"""Frozen constants and the brute-force oracles that certify them.

Every derived value used as an expected test result is recomputed here from
first principles: naive dict-based series products, trial-division divisor
sums, cofactor determinants, definitional hull walks, quadratic-field powers.
None of these helpers share code with the main modules they certify; they are
deliberately slow and obvious.

The store itself lives in oracle_store.json, next to this module. Entries
carry a provenance class: "published" (q-expansion displays and closed-form
constants taken from the literature; no oracle, recorded as ground truth),
"trivial" (checkable by eye; oracle is direct evaluation), or "derived"
(recomputed by a named oracle here). The weight-0 overconvergent slope
tables are derived from the Buzzard-Calegari closed form (Slopes of
overconvergent 2-adic modular forms, Compositio Math. 2005): the slopes of
U_2 are 0 and 1 + 2 v_2((3n)!/n!) for n >= 1, which needs nothing but
integer arithmetic.

run_oracles() recomputes everything and raises FixtureMismatch on the first
disagreement; the test suite runs it before anything else. Nothing here
imports slopewalk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

STORE = Path(__file__).with_name("oracle_store.json")


class FixtureMismatch(Exception):
    """An independent oracle disagrees with a frozen fixture value."""

    def __init__(self, fixture_id: str, expected, got):
        super().__init__(f"fixture {fixture_id!r}: expected {expected!r}, recomputed {got!r}")
        self.fixture_id = fixture_id
        self.expected = expected
        self.got = got


# -- naive series arithmetic (dict index -> Fraction) -------------------------

def _nmul(a: dict, b: dict, prec: int) -> dict:
    out: dict[int, Fraction] = {}
    for i, x in a.items():
        for j, y in b.items():
            n = i + j
            if n < prec:
                out[n] = out.get(n, Fraction(0)) + x * y
    return {n: c for n, c in out.items() if c != 0}


def _nadd(a: dict, b: dict) -> dict:
    out = dict(a)
    for n, c in b.items():
        out[n] = out.get(n, Fraction(0)) + c
    return {n: c for n, c in out.items() if c != 0}


def _nscale(a: dict, c) -> dict:
    return {n: Fraction(c) * x for n, x in a.items() if c != 0}


def _nshift(a: dict, s: int, prec: int) -> dict:
    return {n + s: c for n, c in a.items() if n + s < prec}


def _ncoeff(a: dict, n: int) -> Fraction:
    return a.get(n, Fraction(0))


def _ndivisor_sum(n: int, power: int) -> int:
    return sum(d**power for d in range(1, n + 1) if n % d == 0)


def _ndelta(prec: int) -> dict:
    """q prod (1-q^n)^24 by multiplying out 24 copies of the plain product."""
    base = {0: Fraction(1)}
    for n in range(1, prec):
        base = _nmul(base, {0: Fraction(1), n: Fraction(-1)}, prec)
    out = {0: Fraction(1)}
    for _ in range(24):
        out = _nmul(out, base, prec)
    return _nshift(out, 1, prec)


def _nhauptmodul(prec: int) -> dict:
    """Delta(q^2)/Delta(q) by explicit series long division."""
    num = {2 * n: c for n, c in _ndelta((prec + 1) // 2 + 1).items() if 2 * n < prec + 1}
    den = _ndelta(prec + 1)
    # strip one power of q from each; the quotient is then f itself
    num = {n - 1: c for n, c in num.items()}
    den = {n - 1: c for n, c in den.items()}
    quot: dict[int, Fraction] = {}
    rem = dict(num)
    lead = _ncoeff(den, 0)
    for n in range(prec):
        c = _ncoeff(rem, n) / lead
        if c != 0:
            quot[n] = c
            rem = _nadd(rem, _nscale(_nshift(den, n, prec + 1), -c))
    return quot


def _ntheta(prec: int) -> dict:
    out = {0: Fraction(1)}
    n = 1
    while n * n < prec:
        out[n * n] = Fraction(2)
        n += 1
    return out


def _neisenstein(k: int, prec: int) -> dict:
    pref = {2: -24, 4: 240, 6: -504}[k]
    out = {0: Fraction(1)}
    for n in range(1, prec):
        out[n] = Fraction(pref * _ndivisor_sum(n, k - 1))
    return out


def _nsigma_odd(prec: int) -> dict:
    return {n: Fraction(_ndivisor_sum(n, 1)) for n in range(1, prec, 2)}


def _nlevel2_weight2(prec: int) -> dict:
    e2 = _neisenstein(2, prec)
    doubled = {2 * n: 2 * c for n, c in e2.items() if 2 * n < prec}
    return _nadd(doubled, _nscale(e2, -1))


def _nu2(a: dict) -> dict:
    return {n // 2: c for n, c in a.items() if n % 2 == 0}


def _nhecke_t2(a: dict, k: int, prec: int) -> dict:
    up = _nu2(a)
    vp = {2 * n: c for n, c in a.items() if 2 * n < prec}
    return _nadd(up, _nscale(vp, 2 ** (k - 1)))


def _nprefix(a: dict, prec: int) -> list[Fraction]:
    return [_ncoeff(a, n) for n in range(prec)]


# -- naive linear algebra ------------------------------------------------------

def _ndet(m: list[list[Fraction]]) -> Fraction:
    n = len(m)
    if n == 1:
        return m[0][0]
    total = Fraction(0)
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        sign = -1 if j % 2 else 1
        total += sign * m[0][j] * _ndet(minor)
    return total


def _nrank(m: list[list[Fraction]]) -> int:
    """Largest r with a nonzero r x r minor; fine for tiny matrices."""
    from itertools import combinations

    rows, cols = len(m), len(m[0])
    for r in range(min(rows, cols), 0, -1):
        for ri in combinations(range(rows), r):
            for ci in combinations(range(cols), r):
                sub = [[m[i][j] for j in ci] for i in ri]
                if _ndet(sub) != 0:
                    return r
    return 0


def _npoly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _npoly_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return out


def _ncharpoly(m: list[list[Fraction]]) -> list[Fraction]:
    """det(X I - M) by cofactor expansion over polynomial entries."""
    n = len(m)
    entries = [
        [[Fraction(-m[i][j]), Fraction(1)] if i == j else [Fraction(-m[i][j])] for j in range(n)]
        for i in range(n)
    ]

    def pdet(rows, cols):
        if len(rows) == 1:
            return entries[rows[0]][cols[0]]
        acc = [Fraction(0)]
        for idx, j in enumerate(cols):
            sub = pdet(rows[1:], cols[:idx] + cols[idx + 1 :])
            term = _npoly_mul(entries[rows[0]][j], sub)
            if idx % 2:
                term = [-c for c in term]
            acc = _npoly_add(acc, term)
        return acc

    cp = pdet(tuple(range(n)), tuple(range(n)))
    return cp + [Fraction(0)] * (n + 1 - len(cp))


def _nval(x, p: int):
    """Valuation by repeated division; 'inf' for zero."""
    x = Fraction(x)
    if x == 0:
        return "inf"
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return Fraction(v)


def _nhull_slopes(coeffs: list, p: int) -> list[Fraction]:
    """Root valuations by the definitional hull walk: from the lowest nonzero
    point, repeatedly take the smallest slope to any later point."""
    pts = [(i, _nval(c, p)) for i, c in enumerate(coeffs)]
    pts = [(i, v) for i, v in pts if v != "inf"]
    out: list[Fraction] = []
    x, y = pts[0]
    last = pts[-1][0]
    while x < last:
        best = None
        for (i, v) in pts:
            if i <= x:
                continue
            s = Fraction(v - y, i - x)
            if best is None or s < best[0] or (s == best[0] and i > best[1]):
                best = (s, i, v)
        out.extend([-best[0]] * (best[1] - x))
        x, y = best[1], best[2]
    return sorted(out)


def _nquad_ratio_order(a, k: int, p: int, dmax: int = 12):
    """Order of alpha/beta in Q(sqrt(a^2 - 4 p^(k-1))), elements as x + y*sqrt(D)."""
    a = Fraction(a)
    disc = a * a - 4 * Fraction(p) ** (k - 1)
    if disc == 0:
        return "repeated"
    # alpha = (a + sqrt(D))/2; ratio = alpha/beta = alpha^2 / p^(k-1)
    pk = Fraction(p) ** (k - 1)
    x = (a * a + disc) / (4 * pk)
    y = (2 * a) / (4 * pk)
    rx, ry = x, y
    for d in range(1, dmax + 1):
        if rx == 1 and ry == 0:
            return d
        rx, ry = rx * x + ry * y * disc, rx * y + ry * x
    return "infinite"


# -- eigen-data oracle for the weight-5 seed ----------------------------------

def _nweight5_slice():
    """Naive rebuild of the a_0 = 0 slice of the weight-5 level-4 space, its
    2 x 2 U_2 matrix, eigenvalues and the slope-2 eigenvector prefix."""
    prec = 24
    th2 = _nmul(_ntheta(prec), _ntheta(prec), prec)
    fo = _nsigma_odd(prec)
    monos = []
    for a, b in [(5, 0), (3, 1), (1, 2)]:
        m = {0: Fraction(1)}
        for _ in range(a):
            m = _nmul(m, th2, prec)
        for _ in range(b):
            m = _nmul(m, fo, prec)
        monos.append(m)
    # a_0 = 0 slice: subtract multiples of the first monomial (a_0 = 1)
    s1 = _nadd(monos[1], _nscale(monos[0], -_ncoeff(monos[1], 0)))
    s2 = _nadd(monos[2], _nscale(monos[0], -_ncoeff(monos[2], 0)))
    # echelonize on a_1, a_2
    g1 = _nscale(s1, 1 / _ncoeff(s1, 1))
    s2 = _nadd(s2, _nscale(g1, -_ncoeff(s2, 1)))
    g2 = _nscale(s2, 1 / _ncoeff(s2, 2))
    g1 = _nadd(g1, _nscale(g2, -_ncoeff(g1, 2)))
    rows = prec // 2
    mat = []
    for g in (g1, g2):
        img = _nu2(g)
        c1, c2 = _ncoeff(img, 1), _ncoeff(img, 2)
        resid = _nadd(img, _nadd(_nscale(g1, -c1), _nscale(g2, -c2)))
        assert all(_ncoeff(resid, n) == 0 for n in range(rows)), "slice not U_2-stable"
        mat.append([c1, c2])
    m = [[mat[0][0], mat[1][0]], [mat[0][1], mat[1][1]]]
    tr = m[0][0] + m[1][1]
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    disc = tr * tr - 4 * det
    root = _fraction_sqrt_or_none(disc)
    assert root is not None, "slice eigenvalues not rational"
    eigs = sorted([(tr + root) / 2, (tr - root) / 2])
    # eigenvector for eigenvalue -4: (m - e) v = 0
    target = Fraction(-4)
    assert target in eigs
    if m[0][1] != 0:
        v = [m[0][1], target - m[0][0]]
    else:
        v = [target - m[1][1], m[1][0]]
    eigform = _nadd(_nscale(g1, v[0]), _nscale(g2, v[1]))
    eigform = _nscale(eigform, 1 / _ncoeff(eigform, 1))
    return eigs, _nprefix(eigform, 9)


def _fraction_sqrt_or_none(x: Fraction):
    from math import isqrt

    if x < 0:
        return None
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def _nslopes_gamma0_2_weight12() -> list[Fraction]:
    """Naive U_2 slope multiset on the weight-12 level-2 space (dim 4)."""
    prec = 40
    a2 = _nlevel2_weight2(prec)
    e4 = _neisenstein(4, prec)
    monos = []
    for a, b in [(6, 0), (4, 1), (2, 2), (0, 3)]:
        m = {0: Fraction(1)}
        for _ in range(a):
            m = _nmul(m, a2, prec)
        for _ in range(b):
            m = _nmul(m, e4, prec)
        monos.append(m)
    rows = prec // 2
    coeff = [[_ncoeff(monos[j], i) for j in range(4)] for i in range(rows)]
    mat = [[Fraction(0)] * 4 for _ in range(4)]
    for j in range(4):
        img = _nu2(monos[j])
        rhs = [_ncoeff(img, i) for i in range(rows)]
        sol = _nsolve_overdetermined(coeff, rhs)
        for i in range(4):
            mat[i][j] = sol[i]
    cp = _ncharpoly(mat)
    return _nhull_slopes(cp, 2)


def _nsolve_overdetermined(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """Solve a tall exactly-consistent system by minor selection + Cramer."""
    from itertools import combinations

    n = len(a[0])
    for rows in combinations(range(len(a)), n):
        sub = [a[i] for i in rows]
        d = _ndet(sub)
        if d == 0:
            continue
        sol = []
        for j in range(n):
            rep = [row[:j] + [b[i]] + row[j + 1 :] for row, i in zip(sub, rows)]
            sol.append(_ndet(rep) / d)
        for i, row in enumerate(a):
            assert sum(x * s for x, s in zip(row, sol)) == b[i], "inconsistent system"
        return sol
    raise AssertionError("no invertible minor found")


def _nt2_charpoly_S24() -> list[Fraction]:
    """Naive charpoly of T_2 on the weight-24 level-1 cusp space (dim 2)."""
    prec = 40
    e4 = _neisenstein(4, prec)
    e6 = _neisenstein(6, prec)
    monos = []
    for a, b in [(6, 0), (3, 2), (0, 4)]:  # 4a + 6b = 24
        m = {0: Fraction(1)}
        for _ in range(a):
            m = _nmul(m, e4, prec)
        for _ in range(b):
            m = _nmul(m, e6, prec)
        monos.append(m)
    # cusp echelon: kill a_0, then echelonize on a_1, a_2
    c1 = _nadd(monos[1], _nscale(monos[0], -_ncoeff(monos[1], 0)))
    c2 = _nadd(monos[2], _nscale(monos[0], -_ncoeff(monos[2], 0)))
    g1 = _nscale(c1, 1 / _ncoeff(c1, 1))
    c2 = _nadd(c2, _nscale(g1, -_ncoeff(c2, 1)))
    g2 = _nscale(c2, 1 / _ncoeff(c2, 2))
    g1 = _nadd(g1, _nscale(g2, -_ncoeff(g1, 2)))
    rows = prec // 2
    coeff = [[_ncoeff(g, i) for g in (g1, g2)] for i in range(rows)]
    mat = [[Fraction(0)] * 2 for _ in range(2)]
    for j, g in enumerate((g1, g2)):
        img = _nhecke_t2(g, 24, prec)
        rhs = [_ncoeff(img, i) for i in range(rows)]
        sol = _nsolve_overdetermined(coeff, rhs)
        mat[0][j], mat[1][j] = sol
    return _ncharpoly(mat)


# -- fixture store -------------------------------------------------------------

@dataclass(frozen=True)
class FrozenFixture:
    id: str
    provenance: str  # "published" | "trivial" | "derived"
    value: object  # JSON-shaped, rationals as "num/den" strings
    oracle: str
    source: str = ""


def _enc(x) -> object:
    """Encode oracle outputs into the JSON shape used by the store."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (list, tuple)):
        return [_enc(v) for v in x]
    if isinstance(x, dict):
        return {k: _enc(v) for k, v in x.items()}
    return x


def _canon(x) -> str:
    return json.dumps(x, sort_keys=True, separators=(",", ":"))


def _nv2_factorial(m: int) -> int:
    """v_2(m!) = m - (number of ones in the binary expansion of m)."""
    return m - bin(m).count("1")


def _nbuzzard_calegari(count: int) -> list[Fraction]:
    """First count weight-0 U_2 slopes: 0, then 1 + 2 v_2((3n)!/n!)."""
    return [Fraction(0)] + [
        Fraction(1 + 2 * (_nv2_factorial(3 * n) - _nv2_factorial(n))) for n in range(1, count)
    ]


_ORACLES = {
    "val_5pow10_minus_1_at_2": lambda: _nval(5**10 - 1, 2),
    "val_w_coordinate_k12": lambda: _nval(5**10 - 1, 2),
    "hull_x2_24x_2048": lambda: _nhull_slopes([2048, 24, 1], 2),
    "hull_s16_hecke": lambda: _nhull_slopes([2**15, -216, 1], 2),
    "hull_refinement_wt5": lambda: _nhull_slopes([2**4, 4, 1], 2),
    "delta_prefix_4": lambda: _nprefix(_ndelta(4), 4),
    "tau_2": lambda: _ncoeff(_ndelta(3), 2),
    "hauptmodul_prefix_3": lambda: _nprefix(_nhauptmodul(3), 3),
    "hauptmodul_u2_leading": lambda: _ncoeff(_nu2(_nhauptmodul(4)), 1),
    "a2_weight16_eigenform": lambda: _ncoeff(_nmul(_ndelta(3), _neisenstein(4, 3), 3), 2),
    "hecke_t2_delta_eigenvalue": lambda: _nhecke_eigencheck_delta(),
    "hecke_t2_e4_eigenvalue": lambda: _nhecke_eigencheck_e4(),
    "dim_gamma1_4_weight5": lambda: _ndim_oracle_gamma1_4_wt5(),
    "dim_gamma0_2_weight8": lambda: _ndim_oracle_gamma0_2_wt8(),
    "miller_basis_weight24_prefixes": lambda: _nmiller_wt24(),
    "t2_charpoly_S24": lambda: _nt2_charpoly_S24(),
    "u2_weight5_slice_eigenvalues": lambda: _nweight5_slice()[0],
    "seed_form_prefix_9": lambda: _nweight5_slice()[1],
    "u2_slopes_gamma0_2_weight12": lambda: _nslopes_gamma0_2_weight12(),
    "ratio_order_tau": lambda: _nquad_ratio_order(-24, 12, 2),
    "ratio_order_seed_form": lambda: _nquad_ratio_order(-4, 5, 2),
    "ratio_order_exotic_p5": lambda: _nquad_ratio_order(-4, 5, 5),
    "oc_slopes_n20_first10": lambda: _nbuzzard_calegari(10),
    "oc_slopes_n40_first10": lambda: _nbuzzard_calegari(10),
    "oc_slopes_n60_first10": lambda: _nbuzzard_calegari(10),
}


def _nhecke_eigencheck_delta():
    prec = 40
    d = _ndelta(prec)
    img = _nhecke_t2(d, 12, prec)
    vals = {_ncoeff(img, n) / _ncoeff(d, n) for n in range(1, prec // 2)}
    assert len(vals) == 1
    return vals.pop()


def _nhecke_eigencheck_e4():
    prec = 40
    e = _neisenstein(4, prec)
    img = _nhecke_t2(e, 4, prec)
    ratios = {n: _ncoeff(img, n) / _ncoeff(e, n) for n in range(prec // 2)}
    vals = set(ratios.values())
    assert len(vals) == 1
    return vals.pop()


def _ndim_oracle_gamma1_4_wt5():
    prec = 16
    th2 = _nmul(_ntheta(prec), _ntheta(prec), prec)
    fo = _nsigma_odd(prec)
    rows = []
    for a, b in [(5, 0), (3, 1), (1, 2)]:
        m = {0: Fraction(1)}
        for _ in range(a):
            m = _nmul(m, th2, prec)
        for _ in range(b):
            m = _nmul(m, fo, prec)
        rows.append(_nprefix(m, prec))
    return _nrank(rows)


def _ndim_oracle_gamma0_2_wt8():
    prec = 16
    a2 = _nlevel2_weight2(prec)
    e4 = _neisenstein(4, prec)
    rows = []
    for a, b in [(4, 0), (2, 1), (0, 2)]:
        m = {0: Fraction(1)}
        for _ in range(a):
            m = _nmul(m, a2, prec)
        for _ in range(b):
            m = _nmul(m, e4, prec)
        rows.append(_nprefix(m, prec))
    return _nrank(rows)


def _nmiller_wt24():
    """First five coefficients of the two echelon cusp forms in weight 24."""
    prec = 12
    e4 = _neisenstein(4, prec)
    e6 = _neisenstein(6, prec)
    monos = []
    for a, b in [(6, 0), (3, 2), (0, 4)]:
        m = {0: Fraction(1)}
        for _ in range(a):
            m = _nmul(m, e4, prec)
        for _ in range(b):
            m = _nmul(m, e6, prec)
        monos.append(m)
    c1 = _nadd(monos[1], _nscale(monos[0], -_ncoeff(monos[1], 0)))
    c2 = _nadd(monos[2], _nscale(monos[0], -_ncoeff(monos[2], 0)))
    g1 = _nscale(c1, 1 / _ncoeff(c1, 1))
    c2 = _nadd(c2, _nscale(g1, -_ncoeff(c2, 1)))
    g2 = _nscale(c2, 1 / _ncoeff(c2, 2))
    g1 = _nadd(g1, _nscale(g2, -_ncoeff(g1, 2)))
    return [_nprefix(g1, 5), _nprefix(g2, 5)]


def load_store() -> list[FrozenFixture]:
    obj = json.loads(STORE.read_text())
    return [
        FrozenFixture(e["id"], e["provenance"], e["value"], e["oracle"], e.get("source", ""))
        for e in obj["fixtures"]
    ]


def fixture_value(fid: str):
    for f in load_store():
        if f.id == fid:
            return f.value
    raise KeyError(f"no fixture {fid!r}")


@dataclass(frozen=True)
class OracleReport:
    checked: tuple[str, ...]
    recorded_only: tuple[str, ...]


def run_oracles() -> OracleReport:
    """Recompute every derived fixture and compare bit-exactly."""
    checked, recorded = [], []
    for f in load_store():
        if f.provenance == "published":
            recorded.append(f.id)
            continue
        if f.id not in _ORACLES:
            raise FixtureMismatch(f.id, "an oracle", "none registered")
        got = _enc(_ORACLES[f.id]())
        if _canon(got) != _canon(f.value):
            raise FixtureMismatch(f.id, f.value, got)
        checked.append(f.id)
    return OracleReport(tuple(checked), tuple(recorded))

