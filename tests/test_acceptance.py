"""Acceptance gate: every criterion at its stated tolerance, with one
pass/fail line printed per criterion (run with `pytest -s` to see them).

All tolerances are exact (integer/rational equality); the runtime budgets
are asserted with wall-clock measurements.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from certmut import apply_mutation, numeric_fields
from oracle_store import _nquad_ratio_order, fixture_value
from series_helpers import agrees
from slopewalk.eigencurve import annulus_index, twin, twin_index_sum_check
from slopewalk.errors import RepeatedRoot
from slopewalk.overconvergent import oc_slopes, u2_matrix_weight0
from slopewalk.padic import newton_slopes, val
from slopewalk.pingpong import connect, first_step, induction_step, verify_certificate, verify_certificate_json
from slopewalk.qseries import u_p
from slopewalk.serialize import rat_from_str
from slopewalk.spaces import (
    Level,
    build_basis,
    charpoly,
    cusp_subspace_level1,
    extract_slope_eigenform,
    hatada_check,
    operator_matrix,
    ratio_order,
    refinement,
    zero_constant_slice,
)
from slopewalk.weightspace import WeightCharacter, in_boundary, w_valuation

from slopewalk.eigencurve import bk_predicted_slope, boundary_point


@contextmanager
def budget(name: str, seconds: float):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"{name} took {elapsed:.2f}s, budget {seconds}s"
    print(f"PASS {name} ({elapsed:.2f}s < {seconds}s)")


def test_criterion_1_seed_form_reconstruction():
    with budget("criterion 1: weight-5 seed form reconstruction", 1.0):
        space = build_basis(Level.GAMMA1_4, 5)
        slice5 = zero_constant_slice(space)
        mat = operator_matrix("u2", slice5)
        f0 = extract_slope_eigenform(mat, 2, 2)
        # published displayed coefficients
        assert (f0[1], f0[2], f0[4], f0[5], f0[8]) == (1, -4, 16, -14, -64)
        # derived zeros recomputed by the solve, not read off a display gap
        assert (f0[3], f0[6], f0[7]) == (0, 0, 0)


def test_criterion_2_hatada_sweep():
    with budget("criterion 2: Hatada congruence sweep k=12..60", 60.0):
        report = hatada_check(range(12, 61, 2))
        for entry in report.entries:
            assert entry.mod3_ok, f"k={entry.k}: charpoly not X^dim mod 3"
            assert entry.mod8_ok, f"k={entry.k}: charpoly not X^dim mod 8"
            assert entry.constant_nonzero, f"k={entry.k}: T_2 eigenvalue 0"
            assert entry.slopes_positive, f"k={entry.k}: ordinary eigenform at 2"
        assert report.all_passed


def test_criterion_3_twin_slope_embedding():
    with budget("criterion 3: twin-slope embedding k<=40", 120.0):
        from slopewalk.linalg import rational_roots

        for k in range(12, 41, 2):
            cusp = cusp_subspace_level1(build_basis(Level.SL2Z, k))
            if cusp.dim == 0:
                continue
            cp = charpoly(operator_matrix("t2", cusp))
            u2_spectrum = newton_slopes(
                charpoly(operator_matrix("u2", build_basis(Level.GAMMA0_2, k))), 2
            )
            # Eisenstein slopes occur
            assert Fraction(0) in u2_spectrum and Fraction(k - 1) in u2_spectrum, k
            for a, _ in rational_roots(cp):
                if a == 0:
                    continue
                model = refinement(a, k, 2)
                assert model.alpha_val + model.beta_val == k - 1
                assert Fraction(model.alpha_val) in u2_spectrum, (k, a)
                assert Fraction(model.beta_val) in u2_spectrum, (k, a)


def test_criterion_4_weight_coordinate_law():
    with budget("criterion 4: weight-coordinate law k=3..100", 5.0):
        for k in range(3, 101):
            wc = WeightCharacter(k, 0)
            closed = w_valuation(wc)
            direct = val(5 ** (k - 2) - 1, 2)
            assert closed == direct, k
            assert in_boundary(wc) == (k % 2 == 1), k


def test_criterion_5_pingpong_soundness_and_sensitivity():
    with budget("criterion 5: 4096 certificates + 1000 mutations", 30.0):
        for i in range(1, 65):
            for j in range(1, 65):
                cert = connect(i, j)
                assert len(cert.moves) <= 10
                assert verify_certificate(cert) == [], (i, j)
        rng = random.Random(20260809)
        for _ in range(1000):
            i, j = rng.randint(1, 64), rng.randint(1, 64)
            obj = connect(i, j).to_json_obj()
            _, path = rng.choice(numeric_fields(obj))
            delta = rng.choice([-3, -2, -1, 1, 2, 3])
            violations = verify_certificate_json(apply_mutation(obj, path, delta))
            assert len(violations) >= 1, (i, j, path, delta)


def test_criterion_6_lemma_identities_property_sweep():
    with budget("criterion 6: lemma-level identities on >= 10^4 instances", 120.0):
        rng = random.Random(1729)
        instances = 0

        def random_boundary_pc_point():
            m = rng.randint(0, 10)
            i = rng.randint(1, 50)
            t = rng.randint(1, 30)
            if m == 0:
                wc = WeightCharacter(2 * (i + t) + 1, 0)
            else:
                slope = i * Fraction(2) ** (1 - m)
                wc = WeightCharacter(int(slope) + 1 + t, m)
            return boundary_point(i, wc)

        # twin is an involution
        for _ in range(4000):
            pt = random_boundary_pc_point()
            assert twin(twin(pt)) == pt
            instances += 1
        # index sum + integrality
        for _ in range(4000):
            pt = random_boundary_pc_point()
            assert twin_index_sum_check(pt)
            total = Fraction(pt.k - 1) / w_valuation(pt.wc)
            assert total.denominator == 1
            assert annulus_index(pt) + annulus_index(twin(pt)) == total
            instances += 1
        # slope reconstruction round-trip
        for _ in range(2000):
            pt = random_boundary_pc_point()
            assert bk_predicted_slope(annulus_index(pt), pt.wc) == pt.slope
            instances += 1
        # first_step lands on X_{2^m - 1}
        for m in range(1, 11):
            for i in range(1, min(2**m - 1, 65)):
                z1, z2, _ = first_step(i, m)
                assert annulus_index(z1) == i
                assert annulus_index(z2) == 2**m - 1
                instances += 1
        # induction point slope strictly inside (1/2, 1)
        for m in range(2, 11):
            z2, z1, _ = induction_step(m)
            assert z2.slope == 1 - Fraction(1, 2**m)
            assert Fraction(1, 2) < z2.slope < 1
            assert annulus_index(z1) == 1
            instances += 1
        assert instances >= 10_000, instances


def test_criterion_7_overconvergent_stabilization():
    with budget("criterion 7: truncation stabilization N in {20,40,60}", 120.0):
        reports = {}
        for n in (20, 40, 60):
            op = u2_matrix_weight0(n, 2 * n + 8)
            assert all(type(x) is int for row in op.matrix for x in row), "entries must be 2-integral"
            assert all(v is None or v >= 0 for v in op.column_min_valuations)
            assert len(op.residual_margins) == n  # one margin per column
            reports[n] = oc_slopes(op)
            assert reports[n].slopes[0] == 0
            assert list(reports[n].slopes) == sorted(reports[n].slopes)
            frozen = [rat_from_str(s) for s in fixture_value(f"oc_slopes_n{n}_first10")]
            assert list(reports[n].slopes[:10]) == frozen, f"N={n} fixture drift"
        assert reports[40].slopes[:10] == reports[60].slopes[:10]
        # cross-module classical consistency: the weight-12 refinement slope 3
        # appears in the classical U_2 spectrum at weight 12 (not claimed here
        # for weight 0)
        classical = newton_slopes(
            charpoly(operator_matrix("u2", build_basis(Level.GAMMA0_2, 12))), 2
        )
        assert Fraction(3) in classical


def test_criterion_8_regularity_classifier_vs_brute_force():
    with budget("criterion 8: ratio_order vs quadratic-field oracle", 60.0):
        checked = 0
        for k in range(2, 21):
            for a in range(-200, 201):
                oracle = _nquad_ratio_order(a, k, 2)
                if oracle == "repeated":
                    try:
                        ratio_order(a, k, 2)
                        raise AssertionError(f"RepeatedRoot not raised for a={a}, k={k}")
                    except RepeatedRoot:
                        continue
                mine = ratio_order(a, k, 2)
                mine_cmp = "infinite" if mine is None else mine
                assert mine_cmp == oracle, (a, k, mine_cmp, oracle)
                checked += 1
        # non-integer rationals, same oracle
        rng = random.Random(65537)
        for _ in range(400):
            num = rng.randint(-2000, 2000)
            den = rng.randint(2, 10)
            a = Fraction(num, den)
            if abs(a) > 200:
                continue
            k = rng.randint(2, 20)
            oracle = _nquad_ratio_order(a, k, 2)
            if oracle == "repeated":
                continue
            mine = ratio_order(a, k, 2)
            mine_cmp = "infinite" if mine is None else mine
            assert mine_cmp == oracle, (a, k)
            checked += 1
        assert checked >= 7000


def test_criterion_1_runtime_rerun_for_eigenvector_identity():
    # supplementary to criterion 1: the returned series is a genuine
    # U_2 eigenvector at full shared precision
    slice5 = zero_constant_slice(build_basis(Level.GAMMA1_4, 5))
    f0 = extract_slope_eigenform(operator_matrix("u2", slice5), 2, 2)
    assert agrees(u_p(f0, 2), f0.scalar_mul(-4))
