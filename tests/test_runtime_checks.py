"""Runtime checks in the package must survive `python -O`, which strips
`assert` statements; they raise AssertionError explicitly instead."""

import ast
import pathlib

import fuschar


def test_package_has_no_assert_statements():
    root = pathlib.Path(fuschar.__file__).parent
    found = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"bare assert statements: {found}"
