"""The README's examples run as they are printed there.

The library quick start is executed, and the lines it prints must equal
the comments that document its `print(...)` calls.  Every `dercent ...`
command example that reads no `--input` file must exit 0.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from dercent.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def code_blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.S | re.M)


def documented_output(source: str) -> list[str]:
    """The comment of each print(...) call, in order.

    A comment either ends the print line or follows it on comment-only
    lines, which are joined with single spaces.
    """
    lines = source.splitlines()
    expected = []
    for k, line in enumerate(lines):
        if not line.startswith("print("):
            continue
        if "#" in line:
            expected.append(line.split("#", 1)[1].strip())
            continue
        comment = []
        for follow in lines[k + 1:]:
            if not follow.startswith("#"):
                break
            comment.append(follow[1:].strip())
        expected.append(" ".join(comment))
    return expected


COMMANDS = [
    shlex.split(line.split("#", 1)[0])
    for block in code_blocks("sh")
    for line in block.splitlines()
    if line.startswith("dercent ")
]
FILE_FREE = [argv for argv in COMMANDS if "--input" not in argv]


def test_quick_start_prints_what_its_comments_say():
    (source,) = code_blocks("python")
    expected = documented_output(source)
    assert len(expected) == 2
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_command_examples_are_found():
    assert len(FILE_FREE) >= 7
    assert len(COMMANDS) > len(FILE_FREE)


@pytest.mark.parametrize("argv", FILE_FREE, ids=" ".join)
def test_command_example_exits_zero(capsys, argv):
    assert main(argv[1:]) == 0
    assert capsys.readouterr().out
