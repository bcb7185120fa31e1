import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import slopewalk
from slopewalk.cli import build_parser, main
from slopewalk.pingpong import connect

# environment of a child interpreter that imports this checkout, uncached
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "SLOPEWALK_CACHE_DIR"}
CHILD_ENV["PYTHONPATH"] = str(Path(slopewalk.__file__).parents[1])


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


OC_TRUNC_6_JSON = (
    '{"column_min_valuations":["0/1","3/1","7/1","12/1","15/1","20/1"],"compared_to":null,'
    '"integral":true,"q_prec":20,"residual_margins":[9,7,5,3,1,0],'
    '"row_min_valuations":["0/1","0/1","0/1","3/1","13/1","20/1"],"schema":1,"size":6,'
    '"slopes":["0/1","3/1","7/1","13/1","15/1","17/1"],"stable_prefix":null,"zero_roots":0}\n'
)
# SHA-256 of oc --trunc 20: JSON on stdout, --csv on stdout, the --plot file
OC_TRUNC_20_SHA256 = (
    "27e13850e9578cb0c906d08bc3413c7c549807d61f4b442a90532a9e2ed260cd",
    "576bebe69bdc5db2a847b6eac5387ccd9cacbae28405c97f9ea714ed683dc9a9",
    "b259c4b4f3d452d6bf3f97743706511a13400edbd401aa9ebea7145af80f1d2a",
)


def test_oc_golden_bytes(capsys, tmp_path):
    assert run_cli(capsys, "oc", "--trunc", "6") == (0, OC_TRUNC_6_JSON)
    plot = tmp_path / "oc.dat"
    (json_rc, json_out), (csv_rc, csv_out) = (
        run_cli(capsys, "oc", "--trunc", "20", *flags) for flags in ([], ["--csv", "--plot", str(plot)]))
    assert (json_rc, csv_rc) == (0, 0)
    texts = (json_out.encode(), csv_out.encode(), plot.read_bytes())
    assert tuple(hashlib.sha256(t).hexdigest() for t in texts) == OC_TRUNC_20_SHA256


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
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    obj = json.loads(proc.stdout)
    assert obj["dim"] == 3 and obj["refinements"] == []


# modules that a recompute loads and a cached slopes payload does not
COMPUTE_MODULES = {"slopewalk.linalg", "slopewalk.padic", "slopewalk.qseries", "dataclasses"}
# modules that neither the CLI's import nor a cached slopes payload needs
DEFERRED_MODULES = {"slopewalk.eigencurve", "slopewalk.overconvergent", "slopewalk.pingpong",
                    "slopewalk.weightspace", *COMPUTE_MODULES}


def test_imports_load_only_the_runtime():
    # the package imports none of its modules, and the CLI no test oracle
    # and none of the modules that only other commands use
    script = (
        "import json, sys, slopewalk; before = sorted(sys.modules); import slopewalk.cli; "
        "print(json.dumps([before, sorted(sys.modules)]))"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    before, after = json.loads(proc.stdout)
    assert [m for m in before if m.startswith("slopewalk.")] == []
    assert [m for m in after if "oracle" in m or "fixtures" in m] == []
    assert DEFERRED_MODULES.isdisjoint(after)


def test_warm_slopes_hit_loads_no_walk_or_oc_module(tmp_path):
    script = (
        "import contextlib, io, json, sys, slopewalk.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    rc = slopewalk.cli.main(sys.argv[1:])\n"
        "print(json.dumps([rc, out.getvalue(), sorted(sys.modules)]))"
    )
    # the slopes recompute classifies slopes, the oc one builds the U_2 matrix
    for argv, computes_with in (
        (["slopes", "--level", "gamma0_2", "--k", "16", "--op", "u2"], "slopewalk.eigencurve"),
        (["oc", "--trunc", "8"], "slopewalk.overconvergent"),
    ):
        argv = [*argv, "--cache-dir", str(tmp_path / argv[0])]
        runs = [subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                               text=True, env=CHILD_ENV) for _ in ("cold", "warm")]
        (cold_rc, cold_out, cold_modules), (warm_rc, warm_out, warm_modules) = (
            json.loads(run.stdout) for run in runs)
        assert (cold_rc, warm_rc) == (0, 0) and warm_out == cold_out
        assert computes_with in cold_modules
        assert COMPUTE_MODULES <= set(cold_modules)
        assert DEFERRED_MODULES.isdisjoint(warm_modules), argv[0]


def test_level_choices_are_the_levels():
    from slopewalk.spaces import Level

    level = next(a for a in COMMANDS["slopes"]._actions if a.dest == "level")
    assert list(level.choices) == [lv.value for lv in Level]


def test_cli_runs_from_the_package_sources_alone(tmp_path):
    # a copy of src/slopewalk/*.py, and nothing else, gives the same bytes
    package = Path(slopewalk.__file__).parent
    copy = tmp_path / "copy"
    (copy / "slopewalk").mkdir(parents=True)
    for source in package.glob("*.py"):
        (copy / "slopewalk" / source.name).write_bytes(source.read_bytes())
    script = (
        "import sys, slopewalk.cli; assert slopewalk.cli.__file__.startswith(sys.argv[1]); "
        "sys.exit(slopewalk.cli.main(sys.argv[2:]))"
    )
    for argv in (["slopes", "--level", "sl2z", "--k", "12", "--op", "t2"], ["oc", "--trunc", "8"]):
        runs = [
            subprocess.run([sys.executable, "-c", script, str(root), *argv], capture_output=True,
                           env=dict(CHILD_ENV, PYTHONPATH=str(root)), cwd=tmp_path)
            for root in (copy, package.parent)
        ]
        assert runs[0].returncode == 0, runs[0].stderr
        assert (runs[0].returncode, runs[0].stdout, runs[0].stderr) == (
            runs[1].returncode, runs[1].stdout, runs[1].stderr)


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


# operators that do not act on the level-1 cusp space, which is 0 at k = 0, 4
INVALID_LEVEL1_OPERATORS = [
    (["--op", "u2"], "U_2 does not act on unstabilized level-1 spaces"),
    (["--op", "tp", "--p", "4"], "p must be prime, got 4"),
    (["--op", "tp", "--p", "1"], "p must be prime, got 1"),
    (["--op", "tp"], "tp needs an explicit prime p"),
]


@pytest.mark.parametrize("k", ["0", "4", "12"])
@pytest.mark.parametrize("op_args,message", INVALID_LEVEL1_OPERATORS,
                         ids=["u2", "tp-p4", "tp-p1", "tp-no-p"])
def test_slopes_invalid_operator_exit_code(capsys, k, op_args, message):
    code = main(["slopes", "--level", "sl2z", "--k", k, *op_args])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_slopes_rejects_the_operator_before_building_the_basis(capsys, monkeypatch):
    import slopewalk.spaces as spaces

    def broken(*args, **kwargs):
        raise AssertionError("the basis was built")

    monkeypatch.setattr(spaces, "build_basis", broken)
    for op_args, message in INVALID_LEVEL1_OPERATORS:
        code = main(["slopes", "--level", "sl2z", "--k", "300", *op_args])
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("k,op_args,message", [
    ("13", ["--op", "u2"], "sl2z admits k = 0 or even k >= 4, got 13"),
    ("13", ["--op", "tp", "--p", "4"], "sl2z admits k = 0 or even k >= 4, got 13"),
    ("3000", ["--op", "tp", "--p", "4"], "T_4 on weight 3000 at level sl2z needs q-precision 2044 > 1500"),
], ids=["weight-before-u2", "weight-before-p", "cap-before-p"])
def test_slopes_error_precedence(capsys, k, op_args, message):
    # the weight, then T_p's precision cap, then the operator
    code = main(["slopes", "--level", "sl2z", "--k", k, *op_args])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"error: {message}\n")


# every admissible weight k <= 24 at each level, T_p for p in {3, 5, 7}
TP_SWEEP = [
    (level, k, p)
    for level, weights in (("sl2z", [0] + list(range(4, 25, 2))),
                           ("gamma0_2", range(0, 25, 2)),
                           ("gamma1_4", range(1, 25)))
    for k in weights
    for p in (3, 5, 7)
]
# exit 4 (nebentypus) or 2 (q-precision not scaled with p) in earlier versions
TP_FORMERLY_FAILING = [
    ("gamma1_4", 3, 3), ("gamma1_4", 5, 3), ("sl2z", 24, 7),
    ("sl2z", 40, 37), ("gamma1_4", 9, 7), ("gamma1_4", 24, 31),
]


def test_slopes_tp_sweep_exits_0(capsys):
    failures = []
    for level, k, p in TP_SWEEP:
        code, err = run_cli_err(capsys, "slopes", "--level", level, "--k", str(k), "--op", "tp", "--p", str(p))
        if code != 0:
            failures.append((level, k, p, code, err))
    assert not failures


@pytest.mark.parametrize("level,k,p", TP_FORMERLY_FAILING)
def test_slopes_tp_formerly_failing_exits_0(capsys, level, k, p):
    code, err = run_cli_err(capsys, "slopes", "--level", level, "--k", str(k), "--op", "tp", "--p", str(p))
    assert code == 0, err


def test_slopes_tp_precision_cap_exit_code(capsys):
    code, err = run_cli_err(capsys, "slopes", "--level", "gamma1_4", "--k", "24", "--op", "tp", "--p", "37")
    assert code == 2
    assert "needs q-precision 1739 > 1500" in err


def test_slopes_tp_precision_cap_is_quick_at_a_huge_weight():
    # refused from the formula for the dimension, without listing monomials
    argv = ["slopes", "--level", "sl2z", "--k", str(10**12), "--op", "tp", "--p", "3"]
    proc = subprocess.run([sys.executable, "-m", "slopewalk.cli", *argv], capture_output=True,
                          text=True, env=CHILD_ENV, timeout=10)
    assert proc.returncode == 2
    assert proc.stderr == (f"error: T_3 on weight {10**12} at level sl2z needs q-precision "
                           "500000000034 > 1500\n")


def test_invariant_breach_exit_code(capsys, monkeypatch):
    import slopewalk.spaces as spaces
    from slopewalk.errors import InvariantError

    def broken(*args, **kwargs):
        raise InvariantError("synthetic generator-table failure")

    monkeypatch.setattr(spaces, "build_basis", broken)
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


@pytest.mark.parametrize("argv", [
    ["slopes", "--level", "sl2z", "--k", "24", "--op", "t2"],
    ["slopes", "--level", "gamma0_2", "--k", "16", "--op", "u2"],
    ["slopes", "--level", "gamma1_4", "--k", "9", "--op", "u2"],
    ["oc", "--trunc", "20"],
    ["pingpong", "9", "2"],
    ["hatada", "--kmax", "30"],
], ids=["slopes-sl2z", "slopes-gamma0_2", "slopes-gamma1_4", "oc", "pingpong", "hatada"])
def test_determinism_across_processes(argv):
    # fresh interpreters with different string hashing print the same bytes
    runs = [subprocess.run([sys.executable, "-m", "slopewalk.cli", *argv], capture_output=True,
                           env=dict(CHILD_ENV, PYTHONHASHSEED=seed), timeout=120)
            for seed in ("0", "1")]
    assert [run.returncode for run in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout and runs[0].stdout == runs[1].stdout


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


@pytest.mark.parametrize("payload", ["not json", "[" * 100000, "{}", "[]", "5",
                                     '{"classification": [{"slope": 5}], "slopes": [1]}'],
                         ids=["not-json", "deep", "empty", "list", "int", "wrong-types"])
@pytest.mark.parametrize("argv", [["slopes", "--level", "sl2z", "--k", "16", "--op", "t2"],
                                  ["oc", "--trunc", "4"]], ids=["slopes", "oc"])
def test_cache_corrupt_payload_is_a_miss(capsys, tmp_path, argv, payload):
    # a well-formed entry whose payload does not decode to the command's
    # report is recomputed and replaced
    cache_dir = tmp_path / "cache"
    args = [*argv, "--cache-dir", str(cache_dir)]
    _, fresh = run_cli(capsys, *args)
    (entry,) = cache_dir.glob("*.json")
    entry.write_text(json.dumps({**json.loads(entry.read_text()), "payload": payload}))
    code = main(args)
    out, err = capsys.readouterr()
    assert (code, out, err) == (0, fresh, "")
    assert json.loads(entry.read_text())["payload"] + "\n" == fresh


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SLOPEWALK_CACHE_DIR", str(tmp_path / "envcache"))
    code, _ = run_cli(capsys, "oc", "--trunc", "4")
    assert code == 0
    assert list((tmp_path / "envcache").glob("*.json"))


def test_dual_parameters_take_either_spelling(capsys):
    for argv in (["twin", "11", "0", "2"], ["twin", "--k", "11", "--m", "0", "--slope", "2"],
                 ["twin", "11", "--slope", "2", "--m", "0"]):
        code, obj = run_json(capsys, *argv)
        assert code == 0 and obj["indices"] == [1, 4]
    code, obj = run_json(capsys, "wval", "--m", "0", "--k", "5")
    assert code == 0 and obj["v_w"] == "2/1"
    code, obj = run_json(capsys, "nregular", "-24", "12", "--n", "9", "--p", "2")
    assert code == 0 and obj["n_regular"] is True


def test_dual_parameters_need_exactly_one_spelling(capsys):
    code, err = run_cli_err(capsys, "wval", "5", "0", "--k", "5")
    assert (code, err) == (2, "error: k given both positionally and as --k\n")
    code, err = run_cli_err(capsys, "twin", "--k", "11", "--m", "0")
    assert (code, err) == (2, "error: missing argument: give slope positionally or as --slope\n")
    code, err = run_cli_err(capsys, "nregular")
    assert (code, err) == (2, "error: missing argument: give a positionally or as --a\n")


@pytest.mark.parametrize("p", ["0", "1", "-3"])
def test_nregular_non_prime_p_exit_code(capsys, p):
    code, err = run_cli_err(capsys, "nregular", "1", "12", p, "3")
    assert code == 2
    assert err == f"error: p must be prime, got {p}\n"


def test_unexpected_exception_exit_code(capsys, monkeypatch):
    import slopewalk.spaces as spaces

    def broken(*args, **kwargs):
        raise ZeroDivisionError("synthetic")

    monkeypatch.setattr(spaces, "build_basis", broken)
    code, err = run_cli_err(capsys, "slopes", "--level", "sl2z", "--k", "12", "--op", "t2")
    assert (code, err) == (4, "internal invariant breach: ZeroDivisionError: synthetic\n")


# -- inputs that once built powers of about 10^11 bits ------------------------

LIMITED_CLI = (
    "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
    "from slopewalk.cli import main; sys.exit(main(sys.argv[1:]))"
)
HUGE = "100000000000"


def run_limited(*argv):
    """The CLI in a child process under a 1 GB address-space limit and a
    timeout, so a runaway allocation fails the test instead of the host."""
    return subprocess.run([sys.executable, "-c", LIMITED_CLI, *argv], capture_output=True,
                          text=True, env=CHILD_ENV, timeout=60)


@pytest.mark.parametrize("argv", [["wval", "3", HUGE], ["twin", "3", HUGE, "1"]],
                         ids=["wval", "twin"])
def test_huge_wild_exponent_exit_code(argv):
    proc = run_limited(*argv)
    assert proc.returncode == 2
    assert proc.stderr == f"error: wild exponent must be <= 4096, got {HUGE}\n"


def test_verify_huge_wild_exponent_is_malformed(tmp_path):
    cert = connect(3, 5).to_json_obj()
    cert["moves"][0]["from"]["m"] = 2**40
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    proc = run_limited("verify", str(path))
    assert proc.returncode == 3
    assert proc.stdout.startswith("violation move=None Malformed: ValueError: wild exponent")
    assert len(proc.stdout.splitlines()) == 1


@pytest.mark.parametrize("k", [HUGE, "-" + HUGE])
def test_nregular_huge_weight(k):
    proc = run_limited("nregular", "1", k, "2", "3")
    assert proc.returncode == 0, proc.stderr
    obj = json.loads(proc.stdout)
    assert obj["ratio_order"] == "infinite" and obj["n_regular"] is True


def test_oc_huge_precision_is_as_cheap_as_the_default():
    # once exit 4 with MemoryError: every power sum was built over prec // 2 rows
    huge = run_limited("oc", "--trunc", "5", "--prec", "400000000")
    assert huge.returncode == 0, huge.stderr
    default = run_limited("oc", "--trunc", "5", "--prec", "18")
    assert json.loads(huge.stdout)["slopes"] == json.loads(default.stdout)["slopes"]
    assert json.loads(huge.stdout)["residual_margins"][0] == 200_000_000 - 1


# -- argv fuzz over the parser's own vocabulary -------------------------------

PARSER = build_parser()
COMMANDS = next(a for a in PARSER._actions if isinstance(a, argparse._SubParsersAction)).choices
FILE_DESTS = {"certificate", "plot", "emit", "cache_dir"}
FILE_NAMES = ["cert.json", "bad.json", "missing.json", "out.dat", "cache", "."]


def _values(action):
    """Strings for one argument: its choices, a file name in the working
    directory, or small ints, rationals and arbitrary text (bounded so that
    every command stays fast: weights and indices <= 40, trunc <= 12)."""
    if action.choices:
        return st.sampled_from(sorted(action.choices))
    if action.dest in FILE_DESTS:
        return st.sampled_from(FILE_NAMES)
    top = 12 if action.dest == "trunc" else 40
    ints = st.one_of(st.integers(-3, 3), st.integers(-3, top)).map(str)  # often near 0
    rationals = st.builds("{}/{}".format, st.integers(-99, 99), st.integers(-2, 9))
    other = st.one_of(rationals, st.text(max_size=6))
    if action.type is int:  # nine in ten well-formed, so that commands run
        return st.integers(0, 9).flatmap(lambda i: ints if i else other)
    return st.one_of(ints, other)


@st.composite
def argvs(draw):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    actions = [a for a in COMMANDS[name]._actions if not isinstance(a, argparse._HelpAction)]
    # A parameter of twin, wval or nregular is a positional and a flag of the
    # same name: give them all one way, required arguments always and other
    # flags sometimes, then perhaps one repeated or extra argument.
    dual = {a.metavar for a in actions if not a.option_strings} & {a.dest for a in actions}
    as_flags = draw(st.booleans())

    def wanted(a):
        if a.dest in dual or a.metavar in dual:
            return bool(a.option_strings) == as_flags
        return a.required or draw(st.integers(0, 9)) < 3

    picked = [a for a in actions if wanted(a)]
    picked += draw(st.lists(st.sampled_from(actions), max_size=1))
    options = [a for a in picked if a.option_strings]
    positionals = [a for a in picked if not a.option_strings]
    if draw(st.booleans()):  # options first, positionals in declaration order
        order = draw(st.permutations(options)) + positionals
    else:
        order = draw(st.permutations(picked))
    argv = [name]
    for action in order:
        if action.option_strings:
            argv.append(draw(st.sampled_from(action.option_strings)))
        if action.nargs != 0:
            argv.append(draw(_values(action)))
    return argv


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs())
def test_cli_exit_codes_are_total(tmp_path, monkeypatch, argv):
    monkeypatch.delenv("SLOPEWALK_CACHE_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    Path("cert.json").write_text(json.dumps(connect(3, 5).to_json_obj()))
    Path("bad.json").write_text("{not json")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --version
            code = exc.code
    assert code in {0, 2, 3, 4}, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
