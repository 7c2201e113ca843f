"""Checks on the library's source text rather than its behaviour."""

import ast
from pathlib import Path

import nonnegsets


def test_library_raises_instead_of_asserting():
    # python -O strips assert statements, so invariants must raise.
    sources = sorted(Path(nonnegsets.__file__).parent.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert))
    assert not found, f"assert statements in the library: {found}"
