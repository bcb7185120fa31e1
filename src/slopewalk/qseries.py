"""Truncated q-expansions over exact rationals, with U_p, V_p and T_p.

A QSeries knows its coefficients a_0 .. a_{prec-1} and nothing beyond;
arithmetic never claims precision the operands do not justify. Coefficients
are Python ints whenever integral (all the standard constructors) and
Fractions otherwise, so the big integer paths stay fast.

Conventions for the constructors:

    eisenstein(k)      E_k = 1 - (2k/B_k) * sum sigma_{k-1}(n) q^n
                       (prefactors -24, 240, -504 for k = 2, 4, 6)
    theta              Theta = 1 + 2 * sum q^(n^2)
    sigma_odd_weight2  sum over odd n of sigma_1(n) q^n
    eisenstein2_level2 2 E_2(q^2) - E_2(q)
    hauptmodul_f       q * prod (1 + q^n)^24     (equals Delta(q^2)/Delta(q)),
                       the power by five linalg.truncated_product calls
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from numbers import Rational

from .errors import InsufficientPrecision
from .linalg import truncated_product

Rat = int | Fraction


def _norm(x) -> Rat:
    """Collapse integral Fractions to int; reject non-rationals."""
    if isinstance(x, int):
        return x
    if isinstance(x, Rational):
        f = Fraction(x)
        return f.numerator if f.denominator == 1 else f
    raise TypeError(f"expected a rational coefficient, got {type(x).__name__}")


class QSeries:
    """Exact truncated power series in q: coeffs a_0..a_{prec-1}.

    Immutable, and equal to another QSeries with the same coefficients and
    precision. Not a tuple: q[n] is the coefficient a_n.
    """

    __slots__ = ("coeffs", "prec")
    coeffs: tuple[Rat, ...]
    prec: int

    def __init__(self, coeffs: tuple[Rat, ...], prec: int):
        if prec < 1:
            raise ValueError(f"prec must be >= 1, got {prec}")
        if len(coeffs) != prec:
            raise ValueError(f"{len(coeffs)} coefficients but prec={prec}")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "prec", prec)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.prec == other.prec and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs, self.prec))

    def __repr__(self):
        return f"QSeries(coeffs={self.coeffs!r}, prec={self.prec!r})"

    def __reduce__(self):  # copy and pickle through __init__, as __setattr__ refuses
        return type(self), (self.coeffs, self.prec)

    @classmethod
    def from_coeffs(cls, coeffs, prec: int | None = None) -> "QSeries":
        cs = [_norm(c) for c in coeffs]
        if prec is None:
            prec = len(cs)
        if prec < len(cs):
            cs = cs[:prec]
        else:
            cs.extend([0] * (prec - len(cs)))
        return cls(tuple(cs), prec)

    @classmethod
    def zero(cls, prec: int) -> "QSeries":
        return cls.from_coeffs([], prec)

    @classmethod
    def one(cls, prec: int) -> "QSeries":
        return cls.from_coeffs([1], prec)

    def __getitem__(self, n: int) -> Rat:
        if not 0 <= n < self.prec:
            raise InsufficientPrecision(f"coefficient {n} beyond precision {self.prec}")
        return self.coeffs[n]

    def order(self) -> int:
        """Index of the first known nonzero coefficient; prec if none."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return self.prec

    def truncate(self, prec: int) -> "QSeries":
        if prec > self.prec:
            raise InsufficientPrecision(f"cannot extend precision {self.prec} to {prec}")
        return QSeries(self.coeffs[:prec], prec)

    # -- ring operations ----------------------------------------------------

    def __neg__(self) -> "QSeries":
        return QSeries(tuple(-c for c in self.coeffs), self.prec)

    def __add__(self, other: "QSeries") -> "QSeries":
        p = min(self.prec, other.prec)
        return QSeries(tuple(a + b for a, b in zip(self.coeffs[:p], other.coeffs[:p])), p)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def scalar_mul(self, c) -> "QSeries":
        c = _norm(c)
        return QSeries(tuple(_norm(c * a) for a in self.coeffs), self.prec)

    def __mul__(self, other: "QSeries") -> "QSeries":
        # product precision accounts for leading zeros in either factor
        p = min(self.prec + other.order(), other.prec + self.order())
        out = truncated_product(self.coeffs[:p], other.coeffs[:p], p)
        return QSeries(tuple(_norm(c) for c in out), p)


# -- standard constructors ----------------------------------------------------

def _sigma_table(power: int, prec: int) -> list[int]:
    """sigma_power(n) for 0 <= n < prec via a divisor sieve (sigma(0) unused, 0)."""
    sig = [0] * prec
    for d in range(1, prec):
        dk = d**power
        for n in range(d, prec, d):
            sig[n] += dk
    return sig

_EISENSTEIN_PREFACTOR = {2: -24, 4: 240, 6: -504}


def eisenstein(k: int, prec: int) -> QSeries:
    """Level-1 Eisenstein series E_k, normalized with constant term 1."""
    if k not in _EISENSTEIN_PREFACTOR:
        raise ValueError(f"only E2, E4, E6 are provided; got k={k}")
    c = _EISENSTEIN_PREFACTOR[k]
    sig = _sigma_table(k - 1, prec)
    return QSeries.from_coeffs([1] + [c * sig[n] for n in range(1, prec)])


def theta(prec: int) -> QSeries:
    """Jacobi theta: 1 + 2 sum_{n>=1} q^(n^2)."""
    out = [0] * prec
    out[0] = 1
    for n in range(1, isqrt(prec - 1) + 1):
        out[n * n] = 2
    return QSeries.from_coeffs(out)


def sigma_odd_weight2(prec: int) -> QSeries:
    """sum over odd n of sigma_1(n) q^n, the second Gamma_1(4) generator."""
    sig = _sigma_table(1, prec)
    return QSeries.from_coeffs([sig[n] if n % 2 == 1 else 0 for n in range(prec)])


def eisenstein2_level2(prec: int) -> QSeries:
    """2 E_2(q^2) - E_2(q), the weight-2 form on Gamma_0(2)."""
    e2 = eisenstein(2, prec)
    return v_p(e2, 2).truncate(prec).scalar_mul(2) - e2


def hauptmodul_f(prec: int) -> QSeries:
    """The level-2 hauptmodul q * prod (1 + q^n)^24 = Delta(q^2)/Delta(q): the
    product by shifted adds, then p^24 = p^8 (p^8)^2 after three squarings."""
    n = prec - 1
    p = [1] + [0] * (n - 1)
    for m in range(1, n):
        p[m:] = [x + y for x, y in zip(p[m:], p)]
    for _ in range(3):
        p = truncated_product(p, p, n)
    return QSeries.from_coeffs([0] + truncated_product(p, truncated_product(p, p, n), n))


# -- Hecke-type operators -----------------------------------------------------

def u_p(a: QSeries, p: int) -> QSeries:
    """U_p: coefficient n of the output is a_{pn}. Output precision floor(prec/p)."""
    if a.prec < p:
        raise InsufficientPrecision(f"U_{p} needs prec >= {p}, got {a.prec}")
    out_prec = a.prec // p
    return QSeries(tuple(a.coeffs[p * n] for n in range(out_prec)), out_prec)


def v_p(a: QSeries, p: int) -> QSeries:
    """V_p: substitute q -> q^p. Coefficients off the p-grid are exact zeros."""
    out_prec = p * a.prec
    out = [0] * out_prec
    for n, c in enumerate(a.coeffs):
        out[p * n] = c
    return QSeries(tuple(out), out_prec)


def hecke_t_p(a: QSeries, k: int, p: int, chi_p: int = 1) -> QSeries:
    """T_p = U_p + chi(p) p^(k-1) V_p on a weight-k form with nebentypus chi,
    for p not dividing the level; chi_p = chi(p) is 1 for a trivial
    character. Output precision floor(prec/p), as for U_p."""
    return u_p(a, p) + v_p(a, p).scalar_mul(chi_p * Fraction(p) ** (k - 1))
