"""Source-level checks on the package."""

import ast
from pathlib import Path

import degedit

SRC = Path(degedit.__file__).resolve().parent


def test_no_assert_statements_in_package():
    # invariants must hold under ``python -O`` too, so they raise explicitly
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found
