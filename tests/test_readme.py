"""The README's library and command-line examples give the values and exit codes their comments state."""

import ast
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from pogame import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def first_block(heading: str, language: str) -> str:
    """The first ```language block after the README's ``## heading``."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"\n## {heading}\n") :]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def command_lines() -> list[tuple[list[str], int]]:
    """Each ``pogame`` line of the "Command line" block: its arguments and the exit code its comment states."""
    runs = []
    for line in first_block("Command line", "sh").splitlines():
        command, _, comment = line.partition("#")
        words = shlex.split(command)
        assert words[0] == "pogame", line
        runs.append((words[1:], 1 if "expected to fail" in comment else 0))
    return runs


COMMAND_LINES = command_lines()


@pytest.mark.parametrize("argv, code", COMMAND_LINES, ids=[" ".join(argv) for argv, _ in COMMAND_LINES])
def test_command_line_example_exits_as_its_comment_states(argv, code, tmp_path):
    out = None
    if "--out" in argv:
        at = argv.index("--out") + 1
        out = tmp_path / argv[at]
        argv = [*argv[:at], str(out), *argv[at + 1 :]]
    assert cli.main(argv) == code
    assert out is None or out.stat().st_size > 0


def test_library_example_gives_its_commented_values():
    source = first_block("Library", "python")
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        code = compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec")
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        if not comment.startswith("->"):
            exec(code, namespace)
            continue
        assert isinstance(stmt, ast.Expr), lines[stmt.lineno - 1]
        expected = eval(comment[2:].split("  (")[0], {"log2": math.log2})
        got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        assert np.shape(got) == np.shape(expected), lines[stmt.lineno - 1]
        assert np.max(np.abs(np.subtract(got, expected)), initial=0.0) <= 1e-12, (lines[stmt.lineno - 1], got)
        checked.append(got)
    # 6.0 and 10.0 read 5.999999999999998 and 10.000000000000002, within the tolerance.
    assert len(checked) == 9
