"""The contract of the package's record types: frozen values that compare
and hash by their fields, with every constructor check kept."""

import copy
import pickle
from fractions import Fraction

import pytest

from slopewalk.eigencurve import EigencurvePointModel
from slopewalk.overconvergent import oc_slopes, u2_matrix_weight0
from slopewalk.pingpong import connect, verify_certificate_json
from slopewalk.qseries import QSeries
from slopewalk.spaces import Level, build_basis, hatada_check, operator_matrix, refinement
from slopewalk.weightspace import MAX_WILD_EXPONENT, WeightCharacter

# one way to obtain each record type, called twice for two equal records
RECORDS = {
    "WeightCharacter": lambda: WeightCharacter(5, 1),
    "EigencurvePointModel": lambda: EigencurvePointModel(WeightCharacter(5, 0), Fraction(2)),
    "NewtonPolygon": lambda: oc_slopes(u2_matrix_weight0(4, 16)),
    "TruncatedCompactOperator": lambda: u2_matrix_weight0(4, 16),
    "Move": lambda: connect(3, 5).moves[1],
    "Assumption": lambda: connect(3, 5).assumptions[1],
    "Violation": lambda: verify_certificate_json([])[0],
    "PingPongCertificate": lambda: connect(3, 5),
    "QSeries": lambda: QSeries.from_coeffs([1, Fraction(1, 2), 0]),
    "SpaceBasis": lambda: build_basis(Level.GAMMA0_2, 6),
    "OperatorMatrix": lambda: operator_matrix("u2", build_basis(Level.GAMMA0_2, 6)),
    "RefinementModel": lambda: refinement(-24, 12, 2),
    "HatadaEntry": lambda: hatada_check([12]).entries[0],
    "HatadaReport": lambda: hatada_check([12, 14]),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_frozen_values(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    fields = getattr(a, "_fields", None) or type(a).__slots__
    assert tuple(type(a).__annotations__) == fields  # the annotations document every field
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(a, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert pickle.loads(pickle.dumps(a)) == a and copy.copy(a) == a and copy.deepcopy(a) == a
    if name == "QSeries":
        # q[n] is a coefficient, so a QSeries is no tuple of its fields
        assert not isinstance(a, tuple) and a[1] == Fraction(1, 2)
    else:
        assert a == tuple(getattr(a, field) for field in fields)


def test_weight_characters_order_by_k_then_m():
    chars = [WeightCharacter(5, 1), WeightCharacter(3, 4), WeightCharacter(5, 0), WeightCharacter(4, 9)]
    assert sorted(chars) == [
        WeightCharacter(3, 4), WeightCharacter(4, 9), WeightCharacter(5, 0), WeightCharacter(5, 1)
    ]
    assert WeightCharacter(3, 4) < WeightCharacter(5, 0) <= WeightCharacter(5, 0) < WeightCharacter(5, 1)


_WC = WeightCharacter(5, 0)
_PT = EigencurvePointModel(_WC, Fraction(2))
_TOP = MAX_WILD_EXPONENT + 1

# (constructor, args, kwargs, exception type, message); the first failing
# check decides, in the order the constructor makes them
REJECTIONS = [
    (WeightCharacter, (3.0, 0), {}, TypeError, "k must be an int, got float"),
    (WeightCharacter, ("5", -1), {}, TypeError, "k must be an int, got str"),
    (WeightCharacter, (3, True), {}, TypeError, "m must be an int, got bool"),
    (WeightCharacter, (1, -1), {}, ValueError, "algebraic weight must be >= 2, got 1"),
    (WeightCharacter, (5, -1), {}, ValueError, "wild exponent must be >= 0, got -1"),
    (WeightCharacter, (5, _TOP), {}, ValueError,
     f"wild exponent must be <= {MAX_WILD_EXPONENT}, got {_TOP}"),
    (_WC._replace, (), {"m": -1}, ValueError, "wild exponent must be >= 0, got -1"),
    (EigencurvePointModel, ((5, 0), -1), {"pc": 0}, TypeError,
     "wc must be a WeightCharacter, got tuple"),
    (EigencurvePointModel, (_WC, -1), {"pc": "false"}, TypeError, "pc must be a bool, got str"),
    (EigencurvePointModel, (_WC, 2), {"classical_claim": 1}, TypeError,
     "classical_claim must be a bool, got int"),
    (EigencurvePointModel, (_WC, 0.5), {}, TypeError,
     "slope must be an int or a Fraction, got float"),
    (EigencurvePointModel, (_WC, -1), {}, ValueError, "slope must be >= 0, got -1"),
    (EigencurvePointModel, (_WC, Fraction(-1, 3)), {}, ValueError, "slope must be >= 0, got -1/3"),
    (_PT._replace, (), {"slope": -1}, ValueError, "slope must be >= 0, got -1"),
    (_PT._replace, (), {"pc": None}, TypeError, "pc must be a bool, got NoneType"),
    (QSeries, ((), 0), {}, ValueError, "prec must be >= 1, got 0"),
    (QSeries, ((1, 2), 3), {}, ValueError, "2 coefficients but prec=3"),
]


@pytest.mark.parametrize("ctor, args, kwargs, exc_type, message", REJECTIONS,
                         ids=[f"{ctor.__name__}: {message}" for ctor, *_, message in REJECTIONS])
def test_constructor_rejections(ctor, args, kwargs, exc_type, message):
    with pytest.raises(exc_type) as excinfo:
        ctor(*args, **kwargs)
    assert type(excinfo.value) is exc_type and str(excinfo.value) == message
