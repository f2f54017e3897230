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


@pytest.mark.parametrize("name", [m for m in MODULES if m not in ("nmkraus", "nmkraus.cli")])
def test_public_definitions_are_exported(name):
    # the reverse of test_exports_resolve, for the solver modules
    mod = importlib.import_module(name)
    tree = ast.parse(Path(mod.__file__).read_text())
    public = [node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not _private(node.name)]
    unlisted = [x for x in public if x not in mod.__all__]
    assert not unlisted, f"{name} defines public names its __all__ leaves out: {unlisted}"


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


# the only places that may import scipy, each inside the function that
# needs it: (module, qualified name of the enclosing function)
SCIPY_IMPORTS = {
    ("dynamics", "_CausalSolver.__init__"),
    ("laplace", "forward_transform"),
}


def _scipy_imports(tree):
    """(qualified name of the enclosing def, or "", line) of each scipy import."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Import):
                names = [a.name for a in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module or ""]
            else:
                names = []
            if any(n.split(".")[0] == "scipy" for n in names):
                found.append((".".join(scope), child.lineno))
            visit(child, scope)

    visit(tree, [])
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    # scipy's shared start-up costs about as much as numpy's: a module
    # imports it only inside a function that needs it, and only where
    # SCIPY_IMPORTS allows
    tree = ast.parse(path.read_text(), filename=str(path))
    found = _scipy_imports(tree)
    bad = [f"line {line}: in {scope or 'module body'}" for scope, line in found
           if (path.stem, scope) not in SCIPY_IMPORTS]
    assert not bad, f"{path.name} imports scipy outside its allowed places: {bad}"
    # the allow-list names no place that has stopped importing scipy
    listed = {scope for mod, scope in SCIPY_IMPORTS if mod == path.stem}
    assert listed <= {scope for scope, _ in found}, f"{path.name}: stale SCIPY_IMPORTS entries"
