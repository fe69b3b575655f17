"""The README's library example runs and gives the values its comments state."""

import ast
import math
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    """The first ```python block after the README's ``## Library`` heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_gives_its_commented_values():
    source = library_block()
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
