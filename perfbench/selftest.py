"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Each check in oracles.py must accept a real slopewalk output and reject
the same output perturbed so that exactly the property it guards breaks.
Where a real output cannot be perturbed without breaking an earlier check
first, the test builds a payload whose characteristic polynomial is
prod (X - 2^s) over chosen integer slopes s, so its Newton slopes are
exactly those s and only the property under test is wrong. Exits 0 when
every check passed its real output and rejected every perturbation.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import oracles
from oracles import CheckFailed
from workloads import CertVerify, load_slopewalk

ROOT = Path(__file__).resolve().parent.parent
rejected: list[str] = []


def accepts(fn, *args) -> None:
    fn(*args)


def rejects(label: str, fn, *args) -> None:
    try:
        fn(*args)
    except CheckFailed:
        rejected.append(label)
        return
    raise AssertionError(f"{label}: the perturbed output was accepted")


def cli_output(sw, argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = sw.cli.main(argv)
    assert rc == 0, (argv, rc)
    return buf.getvalue()


def synthetic(level: str, k: int, slopes: list[int]) -> dict:
    """A slopes payload whose charpoly is prod (X - 2^s), ascending."""
    cp = [Fraction(1)]
    for s in slopes:
        root = Fraction(2) ** s
        cp = [(cp[i - 1] if i else 0) - root * (cp[i] if i < len(cp) else 0) for i in range(len(cp) + 1)]
    return {"level": level, "k": k, "dim": len(slopes), "zero_roots": 0, "refinements": [],
            "charpoly": [str(c) for c in cp], "slopes": [str(Fraction(s)) for s in sorted(slopes)]}


def test_oc(sw) -> None:
    ov = sw.overconvergent
    n = 12
    report = ov.oc_slopes(ov.u2_matrix_weight0(n, 2 * n + 8))
    accepts(oracles.check_oc_slopes, n, report.slopes, report.zero_root_multiplicity)
    bumped = list(report.slopes)
    bumped[-1] += 2
    rejects("oc: one slope off the closed form", oracles.check_oc_slopes, n, bumped, 0)
    rejects("oc: a zero root", oracles.check_oc_slopes, n, report.slopes, 1)


def test_slopes(sw) -> None:
    g0 = json.loads(cli_output(sw, ["slopes", "--level", "gamma0_2", "--k", "24", "--op", "u2"]))
    accepts(oracles.check_slopes_payload, "gamma0_2", 24, g0)
    bad = dict(g0, dim=g0["dim"] + 1)
    rejects("gamma0_2: dim off floor(k/4)+1", oracles.check_slopes_payload, "gamma0_2", 24, bad)
    bad = dict(g0, slopes=g0["slopes"][:-1] + ["22/1"])
    rejects("gamma0_2: slopes not the Newton slopes of the charpoly",
            oracles.check_slopes_payload, "gamma0_2", 24, bad)
    # k = 24: dim 7, dim S_24(1) = 2, so 0, 23, one 11 and two pairs s, 23 - s
    accepts(oracles.check_slopes_payload, "gamma0_2", 24, synthetic("gamma0_2", 24, [0, 23, 11, 3, 20, 5, 18]))
    rejects("gamma0_2: oldform slopes not paired as s <-> k-1-s", oracles.check_slopes_payload,
            "gamma0_2", 24, synthetic("gamma0_2", 24, [0, 23, 11, 3, 19, 5, 19]))
    rejects("gamma0_2: no slope k-1", oracles.check_slopes_payload,
            "gamma0_2", 24, synthetic("gamma0_2", 24, [0, 22, 11, 3, 20, 5, 18]))
    rejects("gamma0_2: (k-2)/2 too rare", oracles.check_slopes_payload,
            "gamma0_2", 24, synthetic("gamma0_2", 24, [0, 23, 10, 3, 20, 5, 18]))

    g1 = json.loads(cli_output(sw, ["slopes", "--level", "gamma1_4", "--k", "11", "--op", "u2"]))
    accepts(oracles.check_slopes_payload, "gamma1_4", 11, g1)
    rejects("gamma1_4: dim off floor(k/2)+1", oracles.check_slopes_payload, "gamma1_4", 11,
            dict(g1, dim=g1["dim"] - 1))

    l1 = json.loads(cli_output(sw, ["slopes", "--level", "sl2z", "--k", "36", "--op", "t2"]))
    accepts(oracles.check_slopes_payload, "sl2z", 36, l1)
    rejects("sl2z: dim off dim S_k(1)", oracles.check_slopes_payload, "sl2z", 36, dict(l1, dim=l1["dim"] + 1))
    rejects("sl2z: charpoly not X^dim mod 8 and mod 3", oracles.check_slopes_payload,
            "sl2z", 36, synthetic("sl2z", 36, [3, 5, 6]))
    l1_24 = json.loads(cli_output(sw, ["slopes", "--level", "sl2z", "--k", "24", "--op", "t2"]))
    ref = {"eigenvalue": "24/1", "multiplicity": 1, "slopes": ["3/1", "20/1"]}
    rejects("sl2z: refinement eigenvalue not a root", oracles.check_slopes_payload, "sl2z", 24,
            dict(l1_24, refinements=[ref]))
    k12 = json.loads(cli_output(sw, ["slopes", "--level", "sl2z", "--k", "12", "--op", "t2"]))
    accepts(oracles.check_slopes_payload, "sl2z", 12, k12)
    bad = copy.deepcopy(k12)
    bad["refinements"][0]["slopes"] = ["4/1", "7/1"]
    rejects("sl2z: refinement slopes wrong", oracles.check_slopes_payload, "sl2z", 12, bad)


def test_hatada(sw) -> None:
    out = json.loads(cli_output(sw, ["hatada", "--kmax", "40"]))
    accepts(oracles.check_hatada_payload, 40, out)
    bad = copy.deepcopy(out)
    bad["entries"][-1]["dim"] += 1
    rejects("hatada: dim wrong", oracles.check_hatada_payload, 40, bad)
    bad = copy.deepcopy(out)
    bad["entries"][-1]["charpoly"][0] = str(Fraction(bad["entries"][-1]["charpoly"][0]) + 8)
    rejects("hatada: charpoly not X^dim mod 3", oracles.check_hatada_payload, 40, bad)
    rejects("hatada: a weight missing", oracles.check_hatada_payload, 42, out)
    rejects("hatada: failure reported", oracles.check_hatada_payload, 40, dict(out, all_passed=False))


def test_cli_run() -> None:
    accepts(oracles.check_cli_run, 0, "x\n", "x\n")
    rejects("cli: nonzero exit", oracles.check_cli_run, 3, "x\n", None)
    rejects("cli: warm hit differs from the cold payload", oracles.check_cli_run, 0, "x \n", "x\n")


def test_certificates(sw) -> None:
    doc = json.loads(sw.serialize.json_dumps_stable(sw.pingpong.connect(4, 7).to_json_obj()))
    accepts(oracles.check_certificate, doc, 4, 7)
    rejects("cert: endpoints differ from the pair asked for", oracles.check_certificate, doc, 4, 8)

    bad = copy.deepcopy(doc)
    bad["endpoints"] = [5, 7]
    rejects("cert: endpoint field wrong", oracles.check_certificate, bad, 5, 7)

    bad = copy.deepcopy(doc)
    first = bad["moves"][0]
    first["from"]["slope"] = first["to"]["slope"] = "10/1"  # index 5 on an annulus of v(w) = 2
    bad["moves"][1]["from"] = first["to"]
    rejects("cert: first point off X_i by v(w)", oracles.check_certificate, bad, 4, 7)

    bad = copy.deepcopy(doc)
    t = next(i for i, mv in enumerate(bad["moves"]) if mv["kind"] == "twin")
    dst = bad["moves"][t]["to"]
    dst["slope"] = str(Fraction(dst["slope"]) + oracles.w_valuation(dst["k"], dst["m"]))  # next annulus
    bad["moves"][t + 1]["from"] = dst
    rejects("cert: twin slopes do not sum to k-1", oracles.check_certificate, bad, 4, 7)

    bad = copy.deepcopy(doc)
    bad["moves"][2]["to"] = dict(bad["moves"][2]["to"], classical=False)
    rejects("cert: chain broken", oracles.check_certificate, bad, 4, 7)

    bad = copy.deepcopy(doc)
    w = next(i for i, mv in enumerate(bad["moves"]) if mv["kind"] == "within_annulus")
    bad["moves"][w]["to"]["slope"] = str(Fraction(bad["moves"][w]["to"]["slope"]) * 2)
    bad["moves"][w + 1]["from"] = bad["moves"][w]["to"]
    rejects("cert: within-annulus move changes annulus", oracles.check_certificate, bad, 4, 7)

    accepts(oracles.check_accepted, sw.pingpong.verify_certificate_json(doc))
    rejects("cert: a violation on a valid certificate", oracles.check_accepted, ["violation"])
    mutated = copy.deepcopy(doc)
    CertVerify.mutate(mutated, 7, 1)
    assert mutated != doc, "mutation left the certificate unchanged"
    accepts(oracles.check_rejected, sw.pingpong.verify_certificate_json(mutated))
    rejects("cert: a mutation accepted", oracles.check_rejected, [])


def main() -> int:
    sw = load_slopewalk(ROOT)
    test_oc(sw)
    test_slopes(sw)
    test_hatada(sw)
    test_cli_run()
    test_certificates(sw)
    for label in rejected:
        print(f"rejected  {label}")
    print(f"selftest: every check accepted its real output and rejected {len(rejected)} perturbations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
