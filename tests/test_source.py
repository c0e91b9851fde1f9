"""Rules on the library source itself."""

import ast
import pathlib

import isolab

SRC = pathlib.Path(isolab.__file__).resolve().parent


def test_no_bare_assert_in_library():
    # python -O strips assert statements; every guard is a typed IsolabError
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert len(list(SRC.glob("*.py"))) > 5
    assert found == []
