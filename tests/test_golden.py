"""Golden digests of every subcommand: exit code, SHA-256 of stdout and of
each written file, and the stderr text, over a fixed corpus of in-process
`main` runs.

The corpus holds the README's CLI examples, `slopes` at each level (a zero
space, t2, u2 and tp at p = 3 and 5, as JSON, CSV and --plot), `oc` below and
above the forking size, two classical `slopes` runs at the forking size,
`hatada`, `twin` on and off the boundary, `wval`, `nregular` with a finite
and an infinite ratio order, a certificate emitted, verified and verified
again after one slope is changed, and one exit-2 run per subcommand. stdout is byte-identical across Python 3.10-3.13, so one
table serves every interpreter.

    PYTHONPATH=src python tests/test_golden.py > tests/golden_cli.json

rewrites the table from the current tree; a change to it is a change to the
output contract.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import tempfile
from pathlib import Path

from slopewalk.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")


def _tamper(directory: Path) -> None:
    """tampered.json: walk.json with one slope numerator raised by 1."""
    obj = json.loads((directory / "walk.json").read_text())
    point = obj["moves"][3]["to"]
    num, den = point["slope"].split("/")
    point["slope"] = f"{int(num) + 1}/{den}"
    (directory / "tampered.json").write_text(json.dumps(obj))


README_EXAMPLES = [
    "slopes --level sl2z --k 12 --op t2",
    "slopes --level gamma0_2 --k 12 --op u2",
    "slopes --level gamma1_4 --k 5 --op u2",
    "wval 5 0",
    "twin 11 0 2",
    "nregular -24 12 2 9",
    "pingpong 4 7 --verify",
    "pingpong 4 7 --emit cert.json",
    "verify cert.json",
    "oc --trunc 40 --csv",
    "oc --trunc 40 --plot slopes.dat",
    "hatada --kmax 60",
]

SLOPES = [
    f"slopes --level {level} --k {k} --op {op}{fmt}"
    for level, k in (("sl2z", 4), ("sl2z", 24), ("gamma0_2", 8), ("gamma1_4", 7))
    for op in ("t2", "u2", "tp --p 3", "tp --p 5")
    for fmt in ("", " --csv", f" --plot {level}-{k}-{op.replace(' --p ', '')}.dat")
]

OTHERS = [
    "oc --trunc 6",
    "oc --trunc 20",
    "oc --trunc 20 --csv --plot oc20.dat",
    "oc --trunc 30",  # at least FORK_MIN_N rows: charpoly forks where it can
    "slopes --level gamma0_2 --k 88 --op u2",  # dim 23: a classical matrix that forks
    "slopes --level gamma1_4 --k 45 --op u2",  # dim 23
    "twin 7 3 1/2",
    "twin 4 0 1",  # off the boundary: no indices
    "wval 4 0",
    "wval 7 3",
    "nregular 0 12 2 3",  # ratio order 2; README: -24 12 2 9, infinite
    "pingpong 4 7 --verify --emit walk.json",
    "verify walk.json",
    _tamper,
    "verify tampered.json",
]

EXIT_2 = [
    "slopes --level sl2z --k 13 --op t2",
    "twin 5 0 3",  # index 3/2
    "twin 5 0 4",  # the twin has slope 0, index 0
    "pingpong 0 3",
    "verify missing.json",
    "oc --trunc 0",
    "nregular -24 12 4 9",
    "hatada --kmax x",
    "wval 5",
]

CORPUS = README_EXAMPLES + SLOPES + OTHERS + EXIT_2


def _written_files(argv: list[str]) -> list[str]:
    return [argv[i + 1] for i, a in enumerate(argv[:-1]) if a in ("--plot", "--emit")]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_corpus(directory: Path) -> dict:
    """The digest table of CORPUS, run in order inside `directory` (which
    should be empty), with no result cache."""
    table = {}
    cwd = os.getcwd()
    cache_dir = os.environ.pop("SLOPEWALK_CACHE_DIR", None)
    try:
        os.chdir(directory)
        for step in CORPUS:
            if callable(step):
                step(directory)
                continue
            argv = shlex.split(step)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse
                    code = exc.code
            files = {}
            for name in _written_files(argv):
                path = directory / name
                files[name] = _sha256(path.read_bytes()) if path.exists() else None
            assert step not in table, f"duplicate corpus entry {step!r}"
            table[step] = {
                "exit": code,
                "stdout_sha256": _sha256(out.getvalue().encode()),
                "files": files,
                "stderr": err.getvalue(),
            }
    finally:
        os.chdir(cwd)
        if cache_dir is not None:
            os.environ["SLOPEWALK_CACHE_DIR"] = cache_dir
    return table


def test_every_subcommand_matches_its_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    table = run_corpus(tmp_path)
    assert list(table) == list(golden)
    changed = {step: (table[step], golden[step]) for step in golden if table[step] != golden[step]}
    assert not changed
    assert {entry["exit"] for entry in table.values()} == {0, 2, 3}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(run_corpus(Path(tmp)), indent=1))
