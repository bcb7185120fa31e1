from fractions import Fraction

import pytest

from oracle_store import _nbuzzard_calegari, fixture_value
import slopewalk.overconvergent as ov
from slopewalk.errors import InsufficientPrecision, InvariantError
from slopewalk.overconvergent import (
    oc_slopes,
    slopes_to_csv,
    slopes_to_plot_data,
    stable_prefix_length,
    u2_matrix_weight0,
)
from slopewalk.serialize import rat_from_str


def test_precision_guard():
    with pytest.raises(InsufficientPrecision):
        u2_matrix_weight0(10, 27)  # needs 2*10 + 8


def test_column_zero_is_the_constant_eigenvector():
    op = u2_matrix_weight0(6, 20)
    assert [op.matrix[i][0] for i in range(6)] == [1, 0, 0, 0, 0, 0]


def test_u2_of_f_leading_coefficient_matches_oracle():
    op = u2_matrix_weight0(4, 16)
    assert op.matrix[1][1] == rat_from_str(fixture_value("hauptmodul_u2_leading")) == 24
    assert op.matrix[2][1] == 2048  # U_2 f = 24 f + 2048 f^2
    assert op.column_degrees[1] == 2


def test_entries_are_integers_and_lower_valuations_grow():
    op = u2_matrix_weight0(12, 32)
    assert op.integral
    vals = [v for v in op.column_min_valuations if v is not None]
    assert all(v >= 0 for v in vals)  # 2-integral
    assert vals == sorted(vals)  # compactness witness on/below the diagonal


def test_residual_margins_recorded():
    op = u2_matrix_weight0(8, 40)  # generous precision: every column certified
    assert min(op.residual_margins) > 0
    assert op.column_degrees[:3] == (0, 2, 4)


def test_capped_power_sums_give_the_uncapped_matrix():
    # below 2N - 1 rows the columns are truncated; past it every row is kept
    for n in range(1, 41):
        for prec in (2 * n + 8, 4 * n + 9, 4 * n + 40):
            op = u2_matrix_weight0(n, prec)
            rows = prec // 2
            columns = [[x // 2 for x in p] for p in ov._power_sums(n, rows)]
            degrees = tuple(max(i for i, x in enumerate(col) if x) for col in columns)
            assert op.matrix == tuple(tuple(col[i] for col in columns) for i in range(n))
            assert op.column_degrees == degrees
            assert op.residual_margins == tuple(rows - 1 - d for d in degrees)


def test_smallest_slope_zero_and_sorted():
    report = oc_slopes(u2_matrix_weight0(8, 24))
    assert report.slopes[0] == 0
    assert list(report.slopes) == sorted(report.slopes)
    assert report.zero_root_multiplicity == 0


def test_truncation_prefix_stability_small():
    small = oc_slopes(u2_matrix_weight0(8, 24))
    large = oc_slopes(u2_matrix_weight0(12, 32), reference=small)
    assert large.compared_to == 8
    assert large.stable_prefix >= 4


def test_frozen_n20_fixture_reproduced():
    report = oc_slopes(u2_matrix_weight0(20, 48))
    frozen = [rat_from_str(s) for s in fixture_value("oc_slopes_n20_first10")]
    assert list(report.slopes[:10]) == frozen


def test_every_truncated_spectrum_matches_buzzard_calegari():
    # past oc-ladder's N = 30..34; at N = 60 charpoly shifts sums by up to 237 bits
    for n in [*range(1, 33), 40, 48, 60]:
        report = oc_slopes(u2_matrix_weight0(n, 2 * n + 8))
        assert list(report.slopes) == _nbuzzard_calegari(n), f"N={n}"


@pytest.mark.parametrize("equation", [(48, 4095, 1), (46, 4096, 1), (48, 4096, 3), (48, 4096, -1)])
def test_wrong_modular_equation_is_an_invariant_error(monkeypatch, equation):
    monkeypatch.setattr(ov, "MODULAR_EQUATION", equation)
    with pytest.raises(InvariantError):
        u2_matrix_weight0(6, 20)


def test_stable_prefix_length():
    assert stable_prefix_length([1, 2, 3], [1, 2, 4]) == 2
    assert stable_prefix_length([], [1]) == 0


def test_csv_and_plot_output():
    report = oc_slopes(u2_matrix_weight0(4, 16))
    csv = slopes_to_csv(report)
    lines = csv.splitlines()
    assert lines[0] == "N,index,slope_num,slope_den"
    assert lines[1] == "4,0,0,1"
    plot = slopes_to_plot_data(report)
    assert plot.splitlines()[0] == "0 0.000000"
    # exact decimal rendering for a fractional slope
    from slopewalk.overconvergent import OcSlopeReport

    frac_report = OcSlopeReport(1, (Fraction(7, 8),), 0, None, None)
    assert slopes_to_plot_data(frac_report) == "0 0.875000"
