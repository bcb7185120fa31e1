"""q-series helpers that only the tests use: the discriminant form and
equality of truncated series to their shared precision."""

from slopewalk.qseries import QSeries, _eta_style_product


def delta(prec: int) -> QSeries:
    """The discriminant cusp form: q * prod (1 - q^n)^24."""
    prod = _eta_style_product(-1, 24, prec)
    return QSeries.from_coeffs([0] + prod[: prec - 1])


def agrees(a: QSeries, b: QSeries) -> bool:
    """Equality to shared precision (the only meaningful series equality)."""
    n = min(a.prec, b.prec)
    return a.coeffs[:n] == b.coeffs[:n]
