"""The Library code block of README.md runs against the package as written,
and each expression whose comment is a Python value evaluates to that value,
so the documented API and its documented results cannot drift."""

import ast
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_block_runs_and_gives_its_commented_values():
    block = library_block()
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("  # ")
        if not comment or not isinstance(ast.parse(code.strip()).body[0], ast.Expr):
            continue
        try:
            expected = eval(comment.strip(), {"Fraction": Fraction})
        except (SyntaxError, NameError):
            continue  # a comment in words, not a value
        assert eval(code, namespace) == expected, line
        checked += 1
    assert checked >= 4
