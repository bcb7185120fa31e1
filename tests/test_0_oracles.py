"""Oracle gate: every frozen fixture must be reproduced by its independent
oracle before the rest of the suite means anything. The leading 0 in the
filename makes pytest collect this module first.
"""

import pytest

import oracle_store
from oracle_store import _ORACLES, FixtureMismatch, load_store, run_oracles


def test_store_is_well_formed():
    fixtures = load_store()
    assert len(fixtures) >= 20
    ids = [f.id for f in fixtures]
    assert len(ids) == len(set(ids)), "duplicate fixture ids"
    for f in fixtures:
        assert f.provenance in {"published", "trivial", "derived"}
        if f.provenance == "derived":
            assert f.oracle, f.id


def test_every_derived_fixture_has_exactly_one_oracle():
    derived = {f.id for f in load_store() if f.provenance == "derived"}
    assert derived == set(_ORACLES)


def test_oracles_reproduce_frozen_values():
    report = run_oracles()
    assert len(report.checked) == len(_ORACLES)
    assert "seed_form_display" in report.recorded_only


def test_published_seed_form_values():
    # the displayed coefficients of the weight-5 seed form, as recorded
    store = {f.id: f.value for f in load_store()}
    assert store["seed_form_display"] == {
        "1": "1/1",
        "2": "-4/1",
        "4": "16/1",
        "5": "-14/1",
        "8": "-64/1",
    }


def test_mismatch_is_detected(monkeypatch):
    tampered = [
        oracle_store.FrozenFixture(f.id, f.provenance, "999/1" if f.id == "tau_2" else f.value, f.oracle)
        for f in load_store()
    ]
    monkeypatch.setattr(oracle_store, "load_store", lambda: tampered)
    with pytest.raises(FixtureMismatch, match="tau_2"):
        run_oracles()
