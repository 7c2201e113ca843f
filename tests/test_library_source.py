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


def test_family_modules_never_import_numpy():
    # ekr shift and ekr oracle must run without numpy; setcore and ekrshift
    # may not import it at module level or inside any function.
    package = Path(nonnegsets.__file__).parent
    found = []
    for name in ("setcore.py", "ekrshift.py"):
        tree = ast.parse((package / name).read_text(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found.extend(f"{name}:{node.lineno}" for m in modules if m.split(".")[0] == "numpy")
    assert not found, f"numpy imported in: {found}"
