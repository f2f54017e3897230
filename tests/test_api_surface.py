"""Package surface: exports resolve, and modules keep to each other's public names."""

import ast
import importlib
import pkgutil
import re
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


# the places that may import scipy, each inside the function that needs
# it: (module, qualified name of the enclosing function).  None: a run
# needs numpy and PyYAML only, and scipy is a test oracle
SCIPY_IMPORTS = set()


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


def _literal_number(node):
    """Whether ``node`` is a numeric literal, signed or not."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        node = node.operand
    return (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool))


def test_mode_rule_takes_no_fixed_count():
    # every mode sum asks discrete_modes for the widest panel it can
    # use, worked out from its own request; a literal would fix the
    # resolution whatever the request needs
    calls, bad = 0, []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name != "discrete_modes":
                continue
            calls += 1
            span = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "span"), None)
            if span is None or _literal_number(span):
                bad.append(f"{path.name} line {node.lineno}")
    assert calls >= 3, "expected the kernel, image and fold calls of discrete_modes"
    assert not bad, f"discrete_modes called with a literal or no resolution: {bad}"


def _private_definitions(tree):
    """(name, statement) of each module-level private def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if _private(name))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_private_definitions_have_a_caller(path):
    # code with no caller gets deleted: every private module-level name
    # is read somewhere in its module outside its own definition (no
    # other module may read it, see test_no_private_reads_across_modules)
    tree = ast.parse(path.read_text(), filename=str(path))
    loads = [n for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)]
    unread = []
    for name, stmt in _private_definitions(tree):
        own = {id(n) for n in ast.walk(stmt)}
        if not any(n.id == name and id(n) not in own for n in loads):
            unread.append(name)
    assert not unread, f"{path.name} defines private names nothing reads: {unread}"


_CONFIG_READERS = {"_num", "_pos", "_nonneg", "_int", "_str", "_list", "_floats", "_matrix",
                   "_fetch"}


def test_config_keys_have_a_setter():
    # a config key that no shipped config, test or benchmark workload
    # sets is an option nothing exercises: each literal path the CLI
    # reads must end in a key that one of them writes
    root = Path(nmkraus.__file__).resolve().parents[2]
    cli = Path(nmkraus.__file__).parent / "cli.py"
    paths = set()
    for node in ast.walk(ast.parse(cli.read_text(), filename=str(cli))):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) in _CONFIG_READERS
                and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)):
            paths.add(node.args[1].value)
    assert len(paths) > 30, "expected the CLI's config reads"
    files = [*sorted((root / "configs").glob("*.yaml")), *sorted((root / "tests").glob("*.py")),
             root / "benchmarks" / "workloads.py"]
    text = "\n".join(f.read_text() for f in files)
    unset = sorted(p for p in paths
                   if not re.search(rf'\b{p.rsplit(".", 1)[-1]}:|"{p.rsplit(".", 1)[-1]}"', text))
    assert not unset, f"cli.py reads config keys nothing sets: {unset}"
