from fractions import Fraction

import pytest

from oracle_store import _nbuzzard_calegari, _nval, fixture_value
import slopewalk.overconvergent as ov
from slopewalk.errors import InsufficientPrecision, InvariantError
from slopewalk.cli import main
from slopewalk.overconvergent import oc_slopes, u2_matrix_weight0
from slopewalk.padic import NewtonPolygon
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
    assert op.residual_margins[1] == 16 // 2 - 1 - 2  # U_2 f has degree 2


def test_entries_are_integers_and_lower_valuations_grow():
    op = u2_matrix_weight0(12, 32)
    a = op.matrix
    assert all(type(x) is int for row in a for x in row)
    assert all(v is None or type(v) is int for v in op.column_min_valuations)
    assert all(v is None or type(v) is int for v in op.row_min_valuations)
    assert op.column_min_valuations == tuple(
        min((_nval(a[i][j], 2) for i in range(j, 12) if a[i][j]), default=None) for j in range(12)
    )
    assert op.row_min_valuations == tuple(min(_nval(x, 2) for x in row if x) for row in a)
    vals = [v for v in op.column_min_valuations if v is not None]
    assert all(v >= 0 for v in vals)  # 2-integral
    assert vals == sorted(vals)  # compactness witness on/below the diagonal


def test_residual_margins_recorded():
    op = u2_matrix_weight0(8, 40)  # generous precision: every column certified
    assert min(op.residual_margins) > 0
    assert op.residual_margins[:3] == (19, 17, 15)  # columns of degree 0, 2 and 4 in 20 rows


def test_capped_power_sums_give_the_uncapped_matrix():
    # below 2N - 1 rows the columns are truncated; past it every row is kept
    for n in range(1, 41):
        for prec in (2 * n + 8, 4 * n + 9, 4 * n + 40):
            op = u2_matrix_weight0(n, prec)
            rows = prec // 2
            columns = [[x // 2 for x in p] for p in ov._power_sums(n, rows)]
            degrees = tuple(max(i for i, x in enumerate(col) if x) for col in columns)
            assert op.matrix == tuple(tuple(col[i] for col in columns) for i in range(n))
            assert op.residual_margins == tuple(rows - 1 - d for d in degrees)


def test_smallest_slope_zero_and_sorted():
    polygon = oc_slopes(u2_matrix_weight0(8, 24))
    assert type(polygon) is NewtonPolygon
    assert type(polygon.slopes) is tuple and all(type(s) is Fraction for s in polygon.slopes)
    assert polygon.slopes[0] == 0
    assert list(polygon.slopes) == sorted(polygon.slopes)
    assert polygon.zero_root_multiplicity == 0


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


def test_csv_and_plot_output(capsys, tmp_path):
    plot = tmp_path / "slopes.dat"
    assert main(["oc", "--trunc", "4", "--csv", "--plot", str(plot)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "N,index,slope_num,slope_den"
    assert lines[1] == "4,0,0,1"
    assert plot.read_text().splitlines()[0] == "0 0.000000"
