"""The README's Python quickstart runs as written and prints the values it promises."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_quickstart_prints_its_commented_values():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Quickstart \(Python\)\n\n```python\n(.*?)```", text, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    # the i-th print of the block writes the i-th line; a trailing
    # "# <number>" comment is the value that line must read
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(prints)
    promised = {}
    for line, got in zip(prints, printed):
        comment = re.search(r"#\s*([-+0-9.e]+)\s*$", line)
        if comment:
            promised[comment.group(1)] = got
    assert promised == {"0.6846794217843045": "0.6846794217843045",
                        "0.41719753197103276": "0.41719753197103276"}
