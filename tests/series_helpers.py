"""q-series helpers that only the tests use: the discriminant form and
equality of truncated series to their shared precision."""

from oracle_store import _ncoeff, _ndelta
from slopewalk.qseries import QSeries


def delta(prec: int) -> QSeries:
    """The discriminant cusp form q * prod (1 - q^n)^24, multiplied out by the
    oracle store's own dict arithmetic, so it shares no code with slopewalk's
    products."""
    d = _ndelta(prec)
    return QSeries.from_coeffs([_ncoeff(d, n) for n in range(prec)])


def agrees(a: QSeries, b: QSeries) -> bool:
    """Equality to shared precision (the only meaningful series equality)."""
    n = min(a.prec, b.prec)
    return a.coeffs[:n] == b.coeffs[:n]
