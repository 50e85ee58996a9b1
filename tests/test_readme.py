"""Every `$ conicpoints ...` example in README.md prints what the README
shows, up to a `...` line that elides the middle of the output, and the
Library example prints what its comments show."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from conicpoints.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(tag: str) -> list[str]:
    """The bodies of README's fenced blocks opened by ```<tag>."""
    return re.findall(rf"^```{tag}\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def _examples() -> list[tuple[list[str], str]]:
    examples = []
    for block in _blocks(""):
        for command in re.split(r"^\$ ", block, flags=re.M)[1:]:
            line, _, shown = command.partition("\n")
            prog, *argv = shlex.split(line)
            assert prog == "conicpoints"
            examples.append((argv, shown))
    return examples


EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize("argv, shown", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_readme_example(capsys, argv, shown):
    assert main(argv) == 0
    captured = capsys.readouterr()
    printed = captured.out + captured.err
    head, *tail = re.split(r"^ *\.\.\.\n", shown, maxsplit=1, flags=re.M)
    if tail:
        assert printed.startswith(head) and printed.endswith(tail[0])
        assert len(printed) > len(head) + len(tail[0])
    else:
        assert printed == shown


def test_readme_library_example(capsys):
    """README's python block runs, and each `print(...)  # <text>` line in
    it prints exactly <text>."""
    (source,) = _blocks("python")
    shown = re.findall(r"^print\(.*\) +# (.*)$", source, re.M)
    assert shown
    exec(compile(source, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == shown
