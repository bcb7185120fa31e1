import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from certmut import apply_mutation, numeric_fields
from slopewalk import cli, pingpong
from slopewalk.eigencurve import EigencurvePointModel, annulus_index
from slopewalk.errors import ConstraintViolated, InvariantError, PreconditionError
from slopewalk.pingpong import (
    KIND_START,
    KIND_TWIN,
    KIND_WITHIN,
    Move,
    PingPongCertificate,
    connect,
    first_step,
    induction_step,
    verify_certificate,
    verify_certificate_json,
)
from slopewalk.weightspace import WeightCharacter


def test_first_step_examples():
    z1, z2, moves = first_step(1, 2)
    assert (z1.k, z1.slope) == (9, 2) and annulus_index(z1) == 1
    assert z2.slope == 6 and annulus_index(z2) == 3
    z1, z2, _ = first_step(5, 3)
    assert z1.k == 25 and z1.slope == 10 and annulus_index(z1) == 5
    assert z2.slope == 14 and annulus_index(z2) == 7
    with pytest.raises(ConstraintViolated):
        first_step(3, 2)  # 2^2 - 1 = 3 is not > 3
    with pytest.raises(PreconditionError):
        first_step(0, 3)


def test_first_step_lands_on_the_predicted_annuli():
    for m in range(1, 11):
        for i in range(1, min(2**m - 1, 65)):
            z1, z2, _ = first_step(i, m)
            assert annulus_index(z1) == i
            assert annulus_index(z2) == 2**m - 1
            assert 2 * z1.slope != z1.k - 1  # distinct refinement slopes


def test_induction_step_examples():
    z2, z1, moves = induction_step(3)
    assert z2.wc == WeightCharacter(2, 4) and z2.slope == Fraction(7, 8)
    assert z1.slope == Fraction(1, 8) and annulus_index(z1) == 1
    z2, z1, moves = induction_step(1)
    assert z2 == z1 and annulus_index(z1) == 1 and moves == ()
    z2, _, _ = induction_step(2)
    assert z2.slope == Fraction(3, 4) and annulus_index(z2) == 3


def test_induction_slope_strictly_inside_the_half_to_one_window():
    for m in range(2, 11):
        z2, z1, _ = induction_step(m)
        assert Fraction(1, 2) < z2.slope < 1
        assert z2.slope != Fraction(z2.k - 1, 2)
        assert annulus_index(z2) == 2**m - 1 and annulus_index(z1) == 1


def test_connect_identity_is_short():
    cert = connect(1, 1)
    assert len(cert.moves) <= 2
    assert verify_certificate(cert) == []


def test_connect_routes_verify():
    for pair in [(4, 1), (2, 5), (1, 64), (64, 63), (7, 7)]:
        cert = connect(*pair)
        assert len(cert.moves) <= 10
        assert verify_certificate(cert) == [], pair
        assert cert.endpoints == pair


def test_certificate_chain_and_endpoints():
    cert = connect(4, 1)
    for a, b in zip(cert.moves, cert.moves[1:]):
        assert a.dst == b.src
    assert annulus_index(cert.moves[0].src) == 4
    assert annulus_index(cert.moves[-1].dst) == 1


def test_assumptions_are_recorded():
    cert = connect(3, 9)
    tags = {(a.kind, a.tag) for a in cert.assumptions}
    assert ("axiom", "same_annulus_same_component") in tags
    assert ("hypothesis", "n_regular") in tags
    within_moves = [j for j, m in enumerate(cert.moves) if m.kind == KIND_WITHIN]
    logged = {a.move for a in cert.assumptions if a.tag == "n_regular"}
    assert logged == set(within_moves)


def test_json_round_trip():
    cert = connect(4, 7)
    obj = cert.to_json_obj()
    again = PingPongCertificate.from_json_obj(json.loads(json.dumps(obj)))
    assert again == cert
    assert obj["schema"] == 1


def test_tampered_slope_is_caught_and_names_the_move():
    cert = connect(4, 1).to_json_obj()
    # change one slope by 1 (numerator bump on move 3's target)
    mutated = apply_mutation(cert, ("moves", 3, "to", "slope", "num"), 1)
    violations = verify_certificate_json(mutated)
    assert violations
    assert any(v.move in (3, 4) for v in violations)


def _drop_assumptions(obj):
    del obj["assumptions"]


def _move_a_hypothesis(obj):
    next(a for a in obj["assumptions"] if a["tag"] == "n_regular")["move"] = 99


def _retag_the_axiom(obj):
    next(a for a in obj["assumptions"] if a["kind"] == "axiom")["tag"] = "same_annulus"


def _undeclare_the_axiom(obj):
    next(a for a in obj["assumptions"] if a["kind"] == "axiom")["status"] = "assumed"


def _misstate_a_hypothesis(obj):
    obj["assumptions"][-1]["status"] = "declared"


def _duplicate_a_hypothesis(obj):
    obj["assumptions"].append(dict(obj["assumptions"][-1]))


@pytest.mark.parametrize("edit", [
    _drop_assumptions,
    _move_a_hypothesis,
    _retag_the_axiom,
    _undeclare_the_axiom,
    _misstate_a_hypothesis,
    _duplicate_a_hypothesis,
])
def test_an_altered_assumptions_block_is_a_violation(edit):
    obj = connect(4, 7).to_json_obj()
    edit(obj)
    assert [(v.move, v.code) for v in verify_certificate_json(obj)] == [(None, "AssumptionsMismatch")]


def test_assumptions_block_order_and_checked_status_are_accepted():
    obj = connect(4, 7).to_json_obj()
    obj["assumptions"].reverse()
    obj["assumptions"][0]["status"] = "checked"
    assert verify_certificate_json(obj) == []


def test_twin_on_non_pc_point_is_a_violation():
    wc = WeightCharacter(5, 0)
    z = EigencurvePointModel(wc, Fraction(2), pc=False)
    z_tw = EigencurvePointModel(wc, Fraction(2), pc=False)
    cert = PingPongCertificate(
        (1, 1),
        (
            Move(KIND_START, z, z, "lem_first_step"),
            Move(KIND_TWIN, z, z_tw, "lem_slope_of_twin_point"),
        ),
        (),
    )
    codes = {v.code for v in verify_certificate(cert)}
    assert "NotPotentiallyCrystalline" in codes


def test_within_annulus_index_mismatch_is_a_violation():
    a = EigencurvePointModel(WeightCharacter(9, 0), Fraction(2))
    b = EigencurvePointModel(WeightCharacter(9, 0), Fraction(6))
    cert = PingPongCertificate(
        (1, 3),
        (
            Move(KIND_START, a, a, "lem_first_step"),
            Move(KIND_WITHIN, a, b, "lem_propagation"),
        ),
        (),
    )
    codes = {v.code for v in verify_certificate(cert)}
    assert "IndexMismatch" in codes


def _one_move(kind, src, dst):
    return verify_certificate(PingPongCertificate((1, 1), (Move(kind, src, dst, "lem_ping_pong"),), ()))


def _codes(violations, code):
    return [v for v in violations if v.code == code]


def test_an_off_boundary_twin_source_is_reported_once():
    off = EigencurvePointModel(WeightCharacter(10, 0), Fraction(2))  # k even, m = 0: v(w) = 5
    violations = _one_move(KIND_TWIN, off, EigencurvePointModel(WeightCharacter(9, 0), Fraction(6)))
    assert len(_codes(violations, "NotInBoundary")) == 1


def test_a_twin_source_above_k_minus_1_is_only_twin_undefined():
    steep = EigencurvePointModel(WeightCharacter(9, 0), Fraction(10))  # on X_5, slope > k - 1 = 8
    codes = [v.code for v in _one_move(KIND_TWIN, steep, steep)]
    assert "TwinUndefined" in codes and "ValueError" not in codes


def test_a_centre_start_point_is_reported_once_per_side():
    centre = EigencurvePointModel(WeightCharacter(2, 0), Fraction(1))
    violations = _one_move(KIND_START, centre, centre)
    assert len(_codes(violations, "CenterOfWeightSpace")) == 2


def test_a_non_integral_twin_source_is_reported_once():
    half = EigencurvePointModel(WeightCharacter(9, 0), Fraction(3))  # index 3/2
    violations = _one_move(KIND_TWIN, half, EigencurvePointModel(WeightCharacter(9, 0), Fraction(6)))
    assert [v.move for v in _codes(violations, "NonIntegralIndex")] == [0]
    assert _codes(violations, "TwinArithmetic")


def test_an_unindexed_first_point_does_not_mask_the_last_endpoint():
    obj = connect(4, 7).to_json_obj()
    obj["moves"][0]["from"]["k"] = 22  # off the boundary annulus: no index
    obj["endpoints"][1] = 9
    violations = verify_certificate_json(obj)
    assert (7, "EndpointMismatch") in [(v.move, v.code) for v in violations]
    assert (0, "EndpointMismatch") not in [(v.move, v.code) for v in violations]


def test_malformed_json_is_a_violation_not_an_exception():
    assert verify_certificate_json({"schema": 1}) != []
    assert verify_certificate_json({"schema": 99, "endpoints": [1, 1], "moves": []}) != []
    cert = connect(2, 2).to_json_obj()
    cert["moves"][0]["from"]["slope"] = "1/0"
    assert verify_certificate_json(cert) != []


def test_single_field_mutations_always_caught():
    rng = random.Random(7)
    for _ in range(300):
        i, j = rng.randint(1, 32), rng.randint(1, 32)
        obj = connect(i, j).to_json_obj()
        _, path = rng.choice(numeric_fields(obj))
        delta = rng.choice([-3, -2, -1, 1, 2, 3])
        violations = verify_certificate_json(apply_mutation(obj, path, delta))
        assert violations, (i, j, path, delta)
        # each fact once: no line repeats, and nothing leaks as a bare ValueError
        assert len(set(violations)) == len(violations), (i, j, path, delta, violations)
        assert not {v.code for v in violations} & {"ValueError", "IndexSumViolation"}, violations


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_verify_certificate_json_is_total(obj):
    violations = verify_certificate_json(obj)
    assert violations and all(v.code for v in violations)


def _with_nested_defect(kind):
    obj = json.loads(json.dumps(connect(3, 5).to_json_obj()))
    if kind == "slope-not-string":
        obj["moves"][0]["from"]["slope"] = 6
    elif kind == "assumption-not-object":
        obj["assumptions"][0] = "x"
    elif kind == "move-not-object":
        obj["moves"][1] = [1, 2]
    elif kind == "assumptions-not-list":
        obj["assumptions"] = {"kind": "axiom"}
    elif kind == "infinite-weight":
        obj["moves"][0]["from"]["k"] = float("inf")
    elif kind == "endpoints-string":
        obj["endpoints"] = "35"
    elif kind == "float-weight":
        obj["moves"][0]["from"]["k"] = 9.9
    elif kind == "pc-string":
        obj["moves"][0]["from"]["pc"] = "false"
    elif kind == "schema-string":
        obj["schema"] = "1"
    elif kind == "schema-bool":
        obj["schema"] = True
    elif kind == "m-bool":
        obj["moves"][0]["from"]["m"] = False
    elif kind == "kind-int":
        obj["moves"][0]["kind"] = 1
    elif kind == "justification-null":
        obj["moves"][1]["justification"] = None
    elif kind == "tag-int":
        obj["assumptions"][0]["tag"] = 7
    elif kind == "status-null":
        obj["assumptions"][0]["status"] = None
    return obj


@pytest.mark.parametrize(
    "obj",
    [[], "x", None, 5]
    + [
        _with_nested_defect(kind)
        for kind in (
            "slope-not-string",
            "assumption-not-object",
            "move-not-object",
            "assumptions-not-list",
            "infinite-weight",
            "endpoints-string",
            "float-weight",
            "pc-string",
            "schema-string",
            "schema-bool",
            "m-bool",
            "kind-int",
            "justification-null",
            "tag-int",
            "status-null",
        )
    ],
)
def test_wrongly_typed_documents_are_malformed(obj):
    violations = verify_certificate_json(obj)
    assert [v.code for v in violations] == ["Malformed"]


def _index_off_by_one(monkeypatch):
    true_index = pingpong.annulus_index
    monkeypatch.setattr(pingpong, "annulus_index", lambda pt: true_index(pt) + 1)


def _self_twin_seed(monkeypatch):
    # on X_i, but with slope (k-1)/2: its two refinements share a slope
    monkeypatch.setattr(
        pingpong, "_first_step_seed",
        lambda i, m: EigencurvePointModel(WeightCharacter(4 * i + 1, 0), Fraction(2 * i)),
    )


@pytest.mark.parametrize("breach", [_index_off_by_one, _self_twin_seed])
def test_a_planner_invariant_breach_raises_and_exits_4(breach, monkeypatch, capsys):
    breach(monkeypatch)
    with pytest.raises(InvariantError, match="walk planner"):
        connect(4, 7)
    assert cli.main(["pingpong", "4", "7"]) == 4
    assert "walk planner" in capsys.readouterr().err


def test_connect_checks_its_end_seed(monkeypatch):
    true_seed = pingpong._first_step_seed
    monkeypatch.setattr(
        pingpong, "_first_step_seed",
        # X_7's seed gets slope (k-1)/2: its refinements share a slope
        lambda i, m: true_seed(i, m) if i != 7 else EigencurvePointModel(WeightCharacter(29, 0), Fraction(14)),
    )
    with pytest.raises(InvariantError, match="walk planner"):
        connect(4, 7)


def test_induction_step_checks_its_indices(monkeypatch):
    _index_off_by_one(monkeypatch)
    with pytest.raises(InvariantError, match="induction point off X_7"):
        induction_step(3)
