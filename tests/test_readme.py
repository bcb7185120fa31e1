"""The README's library quick start runs as written and prints what it says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_readme_quick_start_prints_its_documented_values():
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == ["(0, 1, -4, 0, 16, -14, 0, 0, -64)", "1/4"]
