"""The package and its tests import nothing beyond the standard library and
numpy (the tests add their own runners and helpers), so an import of an
installed but undeclared package fails here and not only on a clean
install."""

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}
TEST_ALLOWED = ALLOWED | {"pytest", "hypothesis", "hpsim", "oracles", "conftest"}


def imported_modules(path):
    """Top-level names of the absolute imports of a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_imports_are_stdlib_or_numpy():
    for folder, allowed in (("src/hpsim", ALLOWED), ("tests", TEST_ALLOWED)):
        paths = sorted((ROOT / folder).glob("*.py"))
        assert paths
        bad = {f"{path.name}: {name}" for path in paths
               for name in imported_modules(path) if name not in allowed}
        assert not bad, sorted(bad)
