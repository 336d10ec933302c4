"""Source-level checks on the package."""

import ast
from pathlib import Path

import degedit

SRC = Path(degedit.__file__).resolve().parent


def _find(predicate):
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if predicate(node)]
    return found


def _raises_assertion_error(node):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_package():
    # invariants must hold under ``python -O`` too, so they raise explicitly,
    # and as RuntimeError: AssertionError reads as a failed ``assert``
    found = _find(lambda node: isinstance(node, ast.Assert)
                  or _raises_assertion_error(node))
    assert not found, found


ENV_READERS = ("environ", "getenv", "environb", "getenvb")


def test_no_environment_knobs_in_package():
    # behaviour is set by arguments and CLI options, never by the environment
    def reads_env(node):
        if isinstance(node, ast.Attribute):
            return (node.attr in ENV_READERS
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "os")
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            return any(alias.name in ENV_READERS for alias in node.names)
        return False

    found = _find(reads_env)
    assert not found, found


OUTCOMES = ("CHANGED", "NOT_APPLICABLE", "DECIDED_YES", "DECIDED_NO")


def test_rule_outcomes_defined_once():
    # every rule reports through the outcome constants of ``normalize``
    found = _find(lambda node: isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Store) and node.id in OUTCOMES)
    assert all(f.startswith("normalize.py:") for f in found), found
    assert len(found) == len(OUTCOMES), found
