"""Every public name in ``src/repro`` is named by a user.

A function, class, constant, method or property that no code outside
the tests names is dead weight: it can be deleted without moving any
artifact, CLI output or served prediction, and its tests go with it.
These checks keep such names from growing back.

A public top-level name defined in a non-``__init__`` module must be
named somewhere besides its own definition: elsewhere in its own
module, in another ``src/repro`` module, or in ``examples/``,
``benchmarks/`` or ``perfbench/``.  Package ``__init__`` re-exports do
not count as users, and neither do the tests.

A public method or property of a public top-level class is held to the
same rule one level down.  It counts as named where any of those files,
outside the member's own definition, spells it as an attribute
(``x.name``), a keyword (``name=``) or a string (``"name"``, as
``getattr`` and perfbench's patchers spell it).

Neither check has an allowlist: a name only the tests need lives in
``tests/``.
"""

from __future__ import annotations

import ast
import pathlib
import re

from tests.conftest import target_names

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("examples", "benchmarks", "perfbench")

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _public_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Map each public top-level name of ``tree`` to its definition."""
    names: dict[str, ast.stmt] = {}
    for node in tree.body:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [
                name for t in node.targets for name in target_names(t)
            ]
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            targets = [node.target.id]
        else:
            continue
        names.update(
            (name, node) for name in targets if not name.startswith("_")
        )
    return names


def _words(text: str) -> set[str]:
    return set(_WORD.findall(text))


def unreferenced_public_names() -> list[str]:
    """``module:name`` for each public top-level name nothing names."""
    sources = {
        path: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "__init__.py"
    }
    words = {path: _words(text) for path, text in sources.items()}
    callers: set[str] = set()
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            callers |= _words(path.read_text(encoding="utf-8"))
    missing = []
    for path, text in sources.items():
        lines = text.splitlines()
        elsewhere = callers.union(
            *(named for other, named in words.items() if other != path)
        )
        for name, node in _public_definitions(ast.parse(text)).items():
            if name in elsewhere:
                continue
            decorators = getattr(node, "decorator_list", [])
            first = min([node.lineno, *(d.lineno for d in decorators)])
            rest = lines[: first - 1] + lines[node.end_lineno :]
            if name in _words("\n".join(rest)):
                continue
            module = path.relative_to(PACKAGE.parent).with_suffix("")
            missing.append(f"{'.'.join(module.parts)}:{name}")
    return missing


def test_every_public_name_has_a_user_outside_the_tests():
    assert unreferenced_public_names() == []


def _public_members(tree: ast.Module) -> list[tuple[str, ast.FunctionDef]]:
    """``(class, method)`` for each public method or property of each
    public top-level class of ``tree``."""
    return [
        (node.name, item)
        for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
    ]


def _mentions(tree: ast.Module) -> list[tuple[str, int]]:
    """``(name, line)`` for each attribute, keyword and string."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.keyword) and node.arg is not None:
            found.append((node.arg, node.value.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.append((node.value, node.lineno))
    return found


def unreferenced_public_members() -> list[str]:
    """``module:Class.member`` for each public member nothing names."""
    paths = sorted((ROOT / "src").rglob("*.py"))
    for directory in CALLER_DIRS:
        paths += sorted((ROOT / directory).rglob("*.py"))
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8")) for path in paths
    }
    lines: dict[str, list[tuple[pathlib.Path, int]]] = {}
    for path, tree in trees.items():
        for name, line in _mentions(tree):
            lines.setdefault(name, []).append((path, line))
    missing = []
    for path, tree in trees.items():
        if not path.is_relative_to(PACKAGE) or path.name == "__init__.py":
            continue
        module = path.relative_to(PACKAGE.parent).with_suffix("")
        module = ".".join(module.parts)
        for cls, node in _public_members(tree):
            decorators = node.decorator_list
            first = min([node.lineno, *(d.lineno for d in decorators)])
            if not any(
                other != path or not first <= line <= node.end_lineno
                for other, line in lines.get(node.name, [])
            ):
                missing.append(f"{module}:{cls}.{node.name}")
    return missing


def test_every_public_member_has_a_user_outside_the_tests():
    assert unreferenced_public_members() == []
