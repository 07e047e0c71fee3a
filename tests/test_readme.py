"""README's "Library quick start" block runs and prints what it says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library quick start\n\n```python\n(.*?)^```$", text, re.M | re.S)
    assert block is not None
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block.group(1), {"__name__": "readme_quick_start"})
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("ThresholdSet(")
    assert lines[1] == "2"
    kinds = [line.split()[0] for line in lines[2:]]
    assert kinds == ["coin_toss", "partial_absenteeism", "no_queue"]
