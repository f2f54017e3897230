"""Package surface: exports resolve, and modules keep to each other's public names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import nmkraus

SOURCES = sorted(Path(nmkraus.__file__).parent.glob("*.py"))
MODULES = ["nmkraus"] + [f"nmkraus.{m.name}" for m in pkgutil.iter_modules(nmkraus.__path__)]


def _private(name):
    return name.startswith("_") and not name.startswith("__")


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    mod = importlib.import_module(name)
    missing = [x for x in getattr(mod, "__all__", ()) if not hasattr(mod, x)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_reads_across_modules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    # names bound to sibling modules: ``from . import kraus as kr``
    aliases = set()
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "nmkraus"):
            for a in node.names:
                if node.module in (None, "nmkraus"):
                    aliases.add(a.asname or a.name)
                elif _private(a.name):
                    bad.append(f"line {node.lineno}: imports {node.module}.{a.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and _private(node.attr)):
            bad.append(f"line {node.lineno}: reads {node.value.id}.{node.attr}")
    assert not bad, f"{path.name} reads private names of other modules: {bad}"
