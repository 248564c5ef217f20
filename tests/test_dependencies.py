"""The package stays standard-library only: every module that
src/hybridwlp imports is part of the package or of the standard library."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hybridwlp"


def _imported_modules(path: Path):
    """(line, top-level module name or None for a relative import)."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, None if node.level else node.module.split(".")[0]


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_imports_are_intra_package_or_stdlib(name):
    outside = [
        (line, module)
        for line, module in _imported_modules(PACKAGE / name)
        if module not in (None, "hybridwlp") and module not in sys.stdlib_module_names
    ]
    assert outside == []


def test_scan_sees_every_kind_of_import():
    found = {m for p in PACKAGE.glob("*.py") for _, m in _imported_modules(p)}
    assert {None, "__future__", "dataclasses"} <= found
