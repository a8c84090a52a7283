"""The README's quickstarts: the Python block prints the values it promises, and every CLI line parses without argparse."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from dqwalk.cli import _attach_negative_values, _fast_parse

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


def test_cli_quickstart_parses_without_argparse():
    # every line of the CLI quickstart is read by the fast parse, so none of
    # them builds an argparse parser
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Quickstart \(CLI\)\n\n```sh\n(.*?)```", text, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("dqwalk ")]
    assert lines
    for line in lines:
        _, sub, *flags = shlex.split(line, comments=True)
        assert _fast_parse(sub, _attach_negative_values(sub, flags)) is not None, line
