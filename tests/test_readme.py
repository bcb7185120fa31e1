"""The README's library quick start and CLI block run as written and print
what they say."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from slopewalk import cli

README = Path(__file__).parents[1] / "README.md"


def _block(heading: str, lang: str) -> str:
    text = README.read_text()
    section = text[text.index(heading):]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_prints_its_documented_values():
    block = _block("## Library quick start", "python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == ["(0, 1, -4, 0, 16, -14, 0, 0, -64)", "1/4"]


def _slopes_t2(out):
    report = json.loads(out)
    assert report["charpoly_pretty"] == "X + 24" and report["slopes"] == ["3/1"]
    assert [r["slopes"] for r in report["refinements"]] == [["3/1", "8/1"]]


def _slopes_u2(out):
    assert json.loads(out)["slopes"] == ["0/1", "3/1", "8/1", "11/1"]


def _slopes_gamma1_4(out):
    assert "2/1" in json.loads(out)["slopes"]


def _wval(out):
    report = json.loads(out)
    assert report["v_w"] == "2/1" and report["in_boundary"] is True


def _twin(out):
    report = json.loads(out)
    assert report["twin"]["slope"] == "8/1" and report["indices"] == [1, 4]


def _nregular(out):
    report = json.loads(out)
    assert report["ratio_order"] == "infinite" and report["n"] == 9 and report["n_regular"] is True


def _ok(out):
    assert out.splitlines()[0] == "ok"


DOCUMENTED = {
    "slopes --level sl2z --k 12 --op t2": _slopes_t2,
    "slopes --level gamma0_2 --k 12 --op u2": _slopes_u2,
    "slopes --level gamma1_4 --k 5 --op u2": _slopes_gamma1_4,
    "wval 5 0": _wval,
    "twin 11 0 2": _twin,
    "nregular -24 12 2 9": _nregular,
    "pingpong 4 7 --verify": _ok,
    "verify cert.json": _ok,
}


def test_readme_cli_block_runs_and_prints_its_documented_values(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SLOPEWALK_CACHE_DIR", raising=False)
    ran = []
    for line in _block("## CLI", "sh").splitlines():
        argv = shlex.split(line, comments=True)
        if not argv or argv[0] != "slopewalk":
            continue
        capsys.readouterr()
        assert cli.main(argv[1:]) == 0, line
        command = " ".join(argv[1:])
        if command in DOCUMENTED:
            DOCUMENTED[command](capsys.readouterr().out)
        ran.append(command)
    assert set(DOCUMENTED) <= set(ran)
