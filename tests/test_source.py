"""Checks on the package's source text."""

import ast
from pathlib import Path

import eistheta

SRC = Path(eistheta.__file__).parent


def test_package_has_no_assert_statement():
    # an invariant the package relies on must raise a real error, as
    # `python -O` strips assert statements, and a run under -O reaches only
    # the paths the tests reach
    modules = sorted(SRC.rglob("*.py"))
    assert "quadfield.py" in {path.name for path in modules}
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
