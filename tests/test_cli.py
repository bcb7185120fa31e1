import json
import os
import subprocess
import sys
from pathlib import Path

import slopewalk
from slopewalk.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_slopes_sl2z_weight12(capsys):
    code, obj = run_json(capsys, "slopes", "--level", "sl2z", "--k", "12", "--op", "t2")
    assert code == 0
    assert obj["charpoly_pretty"] == "X + 24"
    assert obj["slopes"] == ["3/1"]
    assert obj["refinements"] == [
        {"eigenvalue": "-24/1", "multiplicity": 1, "slopes": ["3/1", "8/1"]}
    ]
    # the payload is self-contained: serialized basis rows and matrix ride along
    assert obj["matrix"] == [["-24/1"]]
    assert obj["basis"][0][1] == "1/1"  # Miller echelon: a_1 = 1
    from slopewalk.serialize import rat_from_str

    assert [rat_from_str(s) for s in obj["basis"][0][:4]] == [0, 1, -24, 252]


def test_slopes_gamma0_2_weight12_contains_both_pairs(capsys):
    code, obj = run_json(capsys, "slopes", "--level", "gamma0_2", "--k", "12", "--op", "u2")
    assert code == 0
    assert set(obj["slopes"]) >= {"3/1", "8/1", "0/1", "11/1"}
    assert obj["eisenstein_pattern_slopes"] == ["0/1", "11/1"]
    assert obj["cuspidal_slopes"] == ["3/1", "8/1"]


def test_slopes_tp_odd_prime(capsys):
    code, obj = run_json(
        capsys, "slopes", "--level", "sl2z", "--k", "12", "--op", "tp", "--p", "3"
    )
    assert code == 0
    assert obj["operator"] == "t3"
    assert obj["charpoly_pretty"] == "X - 252"  # tau(3)


def test_slopes_gamma1_4_weight5_contains_slope_2(capsys):
    code, obj = run_json(capsys, "slopes", "--level", "gamma1_4", "--k", "5", "--op", "u2")
    assert code == 0
    assert "2/1" in obj["slopes"]


def test_slopes_csv(capsys):
    code, out = run_cli(capsys, "slopes", "--level", "sl2z", "--k", "12", "--op", "t2", "--csv")
    assert code == 0
    assert out.splitlines()[0] == "k,index,slope_num,slope_den,class"
    assert out.splitlines()[1] == "12,0,3,1,numerically_non_critical"


def test_wval(capsys):
    code, obj = run_json(capsys, "wval", "5", "0")
    assert code == 0
    assert obj == {"schema": 1, "k": 5, "m": 0, "v_w": "2/1", "in_boundary": True}


def test_nregular(capsys):
    code, obj = run_json(capsys, "nregular", "-24", "12", "2", "9")
    assert code == 0
    assert obj["n_regular"] is True
    assert obj["ratio_order"] == "infinite"


def test_twin(capsys):
    code, obj = run_json(capsys, "twin", "11", "0", "2")
    assert code == 0
    assert obj["twin"]["slope"] == "8/1"
    assert obj["indices"] == [1, 4]
    assert obj["index_sum_ok"] is True


def test_pingpong_verify_ok(capsys):
    code, out = run_cli(capsys, "pingpong", "4", "7", "--verify")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ok"
    cert = json.loads(lines[1])
    assert cert["endpoints"] == [4, 7]


def test_pingpong_emit_and_verify_file(capsys, tmp_path):
    path = tmp_path / "cert.json"
    code, _ = run_cli(capsys, "pingpong", "3", "5", "--emit", str(path))
    assert code == 0
    code, out = run_cli(capsys, "verify", str(path))
    assert code == 0 and out.splitlines()[0] == "ok"
    # tamper and verify again
    obj = json.loads(path.read_text())
    obj["endpoints"][1] = 6
    path.write_text(json.dumps(obj))
    code, out = run_cli(capsys, "verify", str(path))
    assert code == 3
    assert "violation" in out


def test_hatada_exit_codes(capsys):
    code, obj = run_json(capsys, "hatada", "--kmax", "16")
    assert code == 0
    assert obj["all_passed"] is True
    assert {e["k"] for e in obj["entries"]} == {12, 14, 16}


def test_oc_json_and_csv(capsys):
    code, obj = run_json(capsys, "oc", "--trunc", "8")
    assert code == 0
    assert obj["slopes"][0] == "0/1"
    assert obj["integral"] is True
    code, out = run_cli(capsys, "oc", "--trunc", "8", "--csv")
    assert code == 0
    assert out.splitlines()[0] == "N,index,slope_num,slope_den"


def test_oc_plot_file(capsys, tmp_path):
    plot = tmp_path / "slopes.dat"
    code, _ = run_cli(capsys, "oc", "--trunc", "4", "--plot", str(plot))
    assert code == 0
    assert plot.read_text().splitlines()[0] == "0 0.000000"


def test_precondition_exit_code(capsys):
    code, _ = run_cli(capsys, "slopes", "--level", "sl2z", "--k", "13", "--op", "t2")
    assert code == 2
    code, _ = run_cli(capsys, "wval", "2", "0")
    assert code == 2


def run_cli_err(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().err


def test_verify_missing_file_exit_code(capsys, tmp_path):
    code, err = run_cli_err(capsys, "verify", str(tmp_path / "missing.json"))
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_verify_invalid_json_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, err = run_cli_err(capsys, "verify", str(bad))
    assert code == 2
    assert err.startswith("error: ")


def test_verify_deeply_nested_json_exit_code(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    code, err = run_cli_err(capsys, "verify", str(deep))
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_slopes_sl2z_t2_runs_without_sympy():
    # dim S_40 = 3: the rational-root search needs no third-party package
    script = (
        "import sys; sys.modules['sympy'] = None; from slopewalk.cli import main; "
        "sys.exit(main(['slopes', '--level', 'sl2z', '--k', '40', '--op', 't2']))"
    )
    env = {k: v for k, v in os.environ.items() if k != "SLOPEWALK_CACHE_DIR"}
    env["PYTHONPATH"] = str(Path(slopewalk.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    obj = json.loads(proc.stdout)
    assert obj["dim"] == 3 and obj["refinements"] == []


def test_verify_non_object_json_is_a_violation(capsys, tmp_path):
    doc = tmp_path / "list.json"
    doc.write_text("[]")
    code, out = run_cli(capsys, "verify", str(doc))
    assert code == 3
    assert out.startswith("violation move=None Malformed:")


def test_nregular_zero_denominator_exit_code(capsys):
    code, err = run_cli_err(capsys, "nregular", "1/0", "12", "2", "3")
    assert code == 2
    assert "zero denominator" in err


def test_slopes_tp_composite_p_exit_code(capsys):
    code, err = run_cli_err(capsys, "slopes", "--level", "sl2z", "--k", "12", "--op", "tp", "--p", "4")
    assert code == 2
    assert "p must be prime" in err


def test_invariant_breach_exit_code(capsys, monkeypatch):
    import slopewalk.cli as cli
    from slopewalk.errors import InvariantError

    def broken(*args, **kwargs):
        raise InvariantError("synthetic generator-table failure")

    monkeypatch.setattr(cli, "build_basis", broken)
    code, _ = run_cli(capsys, "slopes", "--level", "sl2z", "--k", "12", "--op", "t2")
    assert code == 4


def test_slopes_plot_appends_weight_slope_rows(capsys, tmp_path):
    plot = tmp_path / "sweep.dat"
    for k in ("12", "16"):
        code, _ = run_cli(capsys, "slopes", "--level", "sl2z", "--k", k, "--op", "t2",
                          "--plot", str(plot))
        assert code == 0
    assert plot.read_text().splitlines() == ["12 3.000000", "16 3.000000"]


def test_determinism_byte_identical(capsys):
    _, first = run_cli(capsys, "slopes", "--level", "gamma0_2", "--k", "16", "--op", "u2")
    _, second = run_cli(capsys, "slopes", "--level", "gamma0_2", "--k", "16", "--op", "u2")
    assert first == second
    _, c1 = run_cli(capsys, "pingpong", "9", "2")
    _, c2 = run_cli(capsys, "pingpong", "9", "2")
    assert c1 == c2


def test_cache_roundtrip_and_verify(capsys, tmp_path):
    cache_dir = str(tmp_path / "cache")
    args = ["slopes", "--level", "sl2z", "--k", "16", "--op", "t2", "--cache-dir", cache_dir]
    _, fresh = run_cli(capsys, *args)
    _, cached = run_cli(capsys, *args)
    assert fresh == cached
    code, verified = run_cli(capsys, *args, "--verify-cache")
    assert code == 0 and verified == fresh


def test_cache_corrupt_entry_is_evicted(capsys, tmp_path):
    cache_dir = tmp_path / "cache"
    args = ["oc", "--trunc", "4", "--cache-dir", str(cache_dir)]
    _, fresh = run_cli(capsys, *args)
    entries = list(cache_dir.glob("*.json"))
    assert len(entries) == 1
    entries[0].write_text("{ not json")
    code, again = run_cli(capsys, *args)
    assert code == 0 and again == fresh


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SLOPEWALK_CACHE_DIR", str(tmp_path / "envcache"))
    code, _ = run_cli(capsys, "oc", "--trunc", "4")
    assert code == 0
    assert list((tmp_path / "envcache").glob("*.json"))
