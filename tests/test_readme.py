"""The README's Python examples and command-line session run as written
and print what they say."""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

from apportree.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_in_order():
    # One namespace: later blocks reuse names the Quick start defines.
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) >= 2
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    assert out.getvalue() == "(5, 5, 0, 5, 0)\nFalse\n4\n"


def session() -> list[tuple[str, list[str]]]:
    """Each ``$ apportree ...`` line of the ``## Command line`` block, with
    the non-blank lines shown under it before the next command."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    steps: list[tuple[str, list[str]]] = []
    for line in block.splitlines():
        if line.startswith("$ "):
            steps.append((line[2:], []))
        elif line:
            steps[-1][1].append(line)
    return steps


def test_command_line_session_runs_as_written(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    steps = session()
    assert [command.split()[1] for command, _ in steps] == [
        "generate", "validate", "allocate", "allocate", "check", "reduce", "oracle", "experiment",
    ]
    for command, shown in steps:
        words = shlex.split(command, comments=True)
        assert words[0] == "apportree"
        target = None
        if ">" in words:
            words, target = words[: words.index(">")], words[words.index(">") + 1]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(words[1:])
        assert code == 0, command
        if target is not None:
            Path(target).write_text(out.getvalue())
            printed = err.getvalue()
        else:
            printed = out.getvalue() + err.getvalue()
        if shown:
            assert printed.splitlines() == shown, command
