"""Static checks on the library source, with the stdlib `ast` only.

Checks must survive `python -O`, which strips `assert` statements, so the
library raises typed errors instead.  Every import must be used; the
package `__init__` is exempt, since its lazy namespace re-exports names.
Every top-level definition must be reachable from the namespace or from
another part of the library.  Only `Product` reads product coordinates.
Every parameter is read by its function, bar `self`, `cls` and
`_`-prefixed ones.
"""

import ast
from pathlib import Path

import pytest

import repstab

SOURCES = sorted(Path(repstab.__file__).parent.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = [node.lineno for node in ast.walk(_tree(path))
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "__init__.py"],
    ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items()
                    if name not in used)
    assert unused == [], f"{path.name}: unused imports {unused}"


def test_every_top_level_definition_is_reachable():
    # a top-level def or class must be exported or referenced, by name or
    # attribute, somewhere in the library; helpers only tests use belong
    # in tests/oracles.py.  The PEP 562 hooks are called by the runtime.
    trees = [_tree(path) for path in SOURCES]
    exported = {name for names in repstab._EXPORTS.values()
                for name in names}
    referenced = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unreached = sorted(
        (path.name, node.name) for path, tree in zip(SOURCES, trees)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in exported | referenced | {"__getattr__",
                                                      "__dir__"})
    assert unreached == [], f"unreachable definitions {unreached}"


def test_product_coordinates_stay_behind_product():
    # how an element of a product is addressed is decided in one place:
    # outside `class Product` nothing reads an attribute named `positions`
    reads = []
    for path in SOURCES:
        tree = _tree(path)
        inside = {id(node) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.name == "Product"
                  for node in ast.walk(cls)}
        reads += [(path.name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr == "positions" and id(node) not in inside]
    assert reads == [], f"reads of .positions outside Product: {reads}"


def test_every_parameter_is_read():
    # a parameter a function accepts and never reads is silently ignored:
    # a guard bounds nothing, a family filters nothing.  Names starting
    # with `_` mark a parameter that is unused on purpose.
    unread = []
    for path in SOURCES:
        for node in ast.walk(_tree(path)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args
                      + args.kwonlyargs + [args.vararg, args.kwarg] if a]
            body = [node.body] if isinstance(node, ast.Lambda) else node.body
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)}
            unread += [(path.name, getattr(node, "name", "lambda"), name)
                       for name in params
                       if name not in read | {"self", "cls"}
                       and not name.startswith("_")]
    assert unread == [], f"parameters never read: {unread}"
