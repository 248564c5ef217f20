"""The package stays standard-library only: every module that
src/hybridwlp imports is part of the package or of the standard library.
Every name a module imports is read in it (__init__.py re-exports, so it
is exempt).  And every package function the benchmark's tracer
(perfbench/spans.py) swaps for a timed wrapper exists, so that no
deletion breaks a traced run."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hybridwlp"


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


def _unread_imports(source: str):
    """(line, name) of each name an import binds that the source never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize(
    "name", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_every_imported_name_is_read(name):
    assert _unread_imports((PACKAGE / name).read_text(encoding="utf-8")) == []


def test_unread_import_scan_flags_what_it_should():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b as c, d\nc(d.e)\n"
    assert _unread_imports(source) == [(2, "os")]


def _traced_targets():
    """(module, name) of each r("hybridwlp.<module>", "<name>", ...) call in
    the tracer's source, read with ast and not imported."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    return [tuple(arg.value for arg in node.args[:2]) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "r" and all(isinstance(arg, ast.Constant) for arg in node.args[:2])]


def test_every_traced_target_is_a_package_function():
    targets = _traced_targets()
    assert len(targets) >= 20 and ("hybridwlp.odecert", "rk4_integrate") in targets
    for module, name in targets:
        assert module.startswith("hybridwlp.")
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)
