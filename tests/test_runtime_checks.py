"""Runtime checks in the package must survive `python -O`, which strips
`assert` statements; they raise AssertionError explicitly instead.  An AST
scan also stands in for a linter: no unread imports or locals."""

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


def _unread_names(source: str, module: str) -> set[str]:
    """Module-level imports the module never reads (none for __init__.py,
    and not `from __future__`), and names a function assigns but never
    reads (names starting with _ are exempt)."""
    tree = ast.parse(source)

    def loaded(node) -> set[str]:
        return {n.id for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}

    found = set()
    module_reads = loaded(tree)
    for node in tree.body if module != "__init__.py" else []:
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in module_reads:
                    found.add(f"{module}:{node.lineno} import {name}")
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            reads = loaded(func)
            found.update(f"{module}:{n.lineno} local {n.id}" for n in ast.walk(func)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                         and not n.id.startswith("_") and n.id not in reads)
    return found


def test_package_has_no_unread_imports_or_locals():
    sample = ("from __future__ import annotations\nimport os, sys\n"
              "def f(a):\n    b, _c = a\n    d = 1\n    return sys.path, b\n")
    assert _unread_names(sample, "m.py") == {"m.py:2 import os", "m.py:5 local d"}
    root = pathlib.Path(fuschar.__file__).parent
    found = set()
    for path in sorted(root.glob("*.py")):
        found |= _unread_names(path.read_text(encoding="utf-8"), path.name)
    assert not found, f"unread names: {sorted(found)}"
