"""Static checks on the package source, read with ``ast``.

The package declares no runtime dependencies and computes exactly, so every
import in ``src/revequiv`` must come from the standard library or from the
package itself, no module-level import may go unused, and no float may
appear: no float literal, no ``float`` name and no ``__float__``.  Nor
may an ``assert``: ``python -O`` strips it, so a check that matters must
raise, and one that cannot fail should not cost time.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "revequiv"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _names_used(tree):
    """Every name the module reads, including inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= {n.id for n in ast.walk(ast.parse(annotation.value, mode="eval"))
                     if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_relative(path):
    outside = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots = [node.module.split(".")[0]]
        else:
            continue
        outside += [(node.lineno, r) for r in roots if r not in sys.stdlib_module_names]
    assert outside == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    tree = _tree(path)
    used = _names_used(tree)
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            unused += [(node.lineno, n) for n in names if n not in used]
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_floats(path):
    floats = []
    for node in ast.walk(_tree(path)):
        if (
            isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
            or isinstance(node, ast.Name) and node.id == "float"
            or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == "__float__"
            or isinstance(node, ast.Attribute) and node.attr == "__float__"
        ):
            floats.append((node.lineno, ast.dump(node)[:60]))
    assert floats == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_in_src(path):
    asserts = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert asserts == []


ROOT = SRC.parent.parent
CORPUS = sorted(
    p for d in ("src", "tests", "demos", "perfbench") for p in (ROOT / d).rglob("*.py")
)


def _make_references(path):
    return [node.lineno for node in ast.walk(_tree(path))
            if isinstance(node, ast.Name) and node.id == "_make"
            or isinstance(node, ast.Attribute) and node.attr == "_make"
            or isinstance(node, ast.alias) and node.name == "_make"]


def test_make_is_used_only_in_exactalg():
    # exactalg._make skips the constructor's checks, so a scalar built with it
    # anywhere else could be non-canonical and break equality and hashing
    outside = {str(p.relative_to(ROOT)): _make_references(p)
               for p in CORPUS if p != SRC / "exactalg.py"}
    assert {name: lines for name, lines in outside.items() if lines} == {}
    assert _make_references(SRC / "exactalg.py")


def test_all_lists_exactly_the_names_init_imports():
    import revequiv

    tree = _tree(SRC / "__init__.py")
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert set(revequiv.__all__) == imported
    assert len(revequiv.__all__) == len(imported)
    for name in revequiv.__all__:
        assert getattr(revequiv, name) is not None


def _definitions(tree):
    """(name, first line, last line) of every function, class and method,
    and of every module-level assignment target."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno, node.end_lineno))
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for t in targets:
            for n in ast.walk(t):
                if isinstance(n, ast.Name):
                    out.append((n.id, node.lineno, node.end_lineno))
    return [d for d in out if not (d[0].startswith("__") and d[0].endswith("__"))]


def _mentions(tree):
    """(name, line) of every identifier the file reads or imports, and of
    every string literal that is an identifier, such as a name passed to
    ``getattr``; docstrings do not count."""
    docstrings = {id(n.value) for n in ast.walk(tree)
                  if isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            out.append((node.name.split(".")[-1], node.lineno))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in docstrings):
            out.append((node.value, node.lineno))
    return out


def test_every_definition_is_named_elsewhere():
    mentions = {}
    for path in CORPUS:
        for name, line in _mentions(_tree(path)):
            mentions.setdefault(name, []).append((path, line))
    unused = []
    for path in MODULES:
        for name, first, last in _definitions(_tree(path)):
            if not any(p != path or not first <= line <= last
                       for p, line in mentions.get(name, [])):
                unused.append((path.name, first, name))
    assert unused == []
