"""README examples stay true: the library block runs and prints what its
comments show, and every `$ jacrank ...` example whose output is shown in
full prints exactly that output."""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from jacrank.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
# an output line the README marks as stderr, with the exit code of the run
STDERR_MARK = re.compile(r"^(.*?)\s+# stderr, exit (\d+)$")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(),
                      re.MULTILINE | re.DOTALL)


def _cli_examples():
    """(argv, stdout lines, stderr lines, exit code) for each example shown
    without a `...` elision."""
    out = []
    for block in _blocks("text"):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            if not line.startswith("$ jacrank "):
                continue
            shown = []
            for follow in lines[i + 1:]:
                if not follow or follow.startswith("$ "):
                    break
                shown.append(follow)
            if "..." in shown:
                continue
            stdout, stderr, code = [], [], 0
            for text in shown:
                mark = STDERR_MARK.match(text)
                if mark:
                    stderr.append(mark.group(1))
                    code = int(mark.group(2))
                else:
                    stdout.append(text)
            out.append((shlex.split(line[len("$ jacrank "):]), stdout, stderr, code))
    return out


EXAMPLES = _cli_examples()


def test_readme_has_cli_examples():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("argv,stdout,stderr,code", EXAMPLES,
                         ids=[" ".join(e[0]) for e in EXAMPLES])
def test_readme_cli_example(capsys, argv, stdout, stderr, code):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out.splitlines() == stdout
    assert captured.err.splitlines() == stderr


def test_readme_library_block():
    (block,) = _blocks("python")
    lines = block.splitlines()
    # a comment right after a print line is the text it prints
    expected = [nxt[2:] for line, nxt in zip(lines, lines[1:])
                if line.startswith("print(") and nxt.startswith("# ")]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(compile(block, str(README), "exec"), {})
    assert buf.getvalue().splitlines() == expected
    assert len(expected) == 2
